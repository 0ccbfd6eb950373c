//! Integration of the defense stack: OS policies, trace-level LPPMs, and
//! the privacy report agreeing about what leaks.

#![allow(clippy::unwrap_used, clippy::expect_used)] // test/bench/example target: panics are failures by design

use backwatch::android::system::LocationPolicy;
use backwatch::defense::throttle::ReleaseThrottle;
use backwatch::defense::truncation::GridTruncation;
use backwatch::defense::Lppm;
use backwatch::model::report::PrivacyReport;
use backwatch::prelude::*;
use backwatch::trace::synth::generate_user;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn victim() -> backwatch::trace::synth::UserTrace {
    let mut cfg = SynthConfig::small();
    cfg.days = 6;
    generate_user(&cfg, 0)
}

fn stalk(user: &backwatch::trace::synth::UserTrace, policy: LocationPolicy) -> Trace {
    let mut device = Device::with_position(PositionSource::Trace(user.trace.clone()));
    let app = AppBuilder::new("com.it.stalker")
        .permission(backwatch::android::permission::Permission::AccessFineLocation)
        .behavior(
            LocationBehavior::requester([backwatch::android::provider::ProviderKind::Gps], 5)
                .auto_start(true)
                .background_interval(30),
        )
        .build();
    let id = device.install(app);
    device.set_location_policy(id, policy).unwrap();
    device.launch(id).unwrap();
    device.move_to_background(id).unwrap();
    device.advance(user.trace.last().unwrap().time.as_secs());
    device.collected_trace(id).unwrap()
}

#[test]
fn os_policies_order_the_privacy_severity() {
    let user = victim();
    let grid = Grid::new(SynthConfig::small().city_center, Meters::new(250.0));
    let allow = PrivacyReport::analyze(&stalk(&user, LocationPolicy::Allow), &grid);
    let coarsen = PrivacyReport::analyze(&stalk(&user, LocationPolicy::Coarsen), &grid);
    let block = PrivacyReport::analyze(&stalk(&user, LocationPolicy::Block), &grid);

    assert!(allow.poi_visits > 0);
    assert!(allow.severity() >= 2, "{allow}");
    assert_eq!(block.poi_visits, 0);
    assert_eq!(block.severity(), 0);
    assert!(coarsen.severity() <= allow.severity());
    // coarse fixes are quantized to 300 m cell centers: far fewer
    // distinct positions than raw GPS
    let distinct = |t: &Trace| {
        t.iter()
            .map(|p| (p.pos.lat().to_bits(), p.pos.lon().to_bits()))
            .collect::<std::collections::HashSet<_>>()
            .len()
    };
    assert!(distinct(&stalk(&user, LocationPolicy::Coarsen)) < distinct(&stalk(&user, LocationPolicy::Allow)) / 5);
}

#[test]
fn fake_policy_fabricates_a_consistent_decoy_life() {
    let user = victim();
    let decoy = LatLon::new(40.1, 116.9).unwrap();
    let collected = stalk(&user, LocationPolicy::Fake(decoy));
    assert!(!collected.is_empty());
    assert!(collected.iter().all(|p| p.pos == decoy));
    // the decoy parks the "user" at one spot forever: the report sees one
    // very boring place and no movement profile
    let grid = Grid::new(SynthConfig::small().city_center, Meters::new(250.0));
    let report = PrivacyReport::analyze(&collected, &grid);
    assert!(report.places <= 1);
}

#[test]
fn trace_level_lppm_composes_with_device_collection() {
    // collect via the device, then apply an LPPM before handing the trace
    // to the "backend" — the deployment LP-Guardian-style tools use
    let user = victim();
    let collected = stalk(&user, LocationPolicy::Allow);
    let mut rng = StdRng::seed_from_u64(11);
    let grid = Grid::new(SynthConfig::small().city_center, Meters::new(250.0));

    let truncated =
        GridTruncation::new(Grid::new(SynthConfig::small().city_center, Meters::new(2000.0))).apply(&collected, &mut rng);
    let throttled = ReleaseThrottle::new(Seconds::new(3600)).apply(&collected, &mut rng);

    let raw = PrivacyReport::analyze(&collected, &grid);
    let trunc = PrivacyReport::analyze(&truncated, &grid);
    let thr = PrivacyReport::analyze(&throttled, &grid);
    assert!(raw.poi_visits > 0);
    assert!(trunc.poi_visits <= raw.poi_visits);
    assert!(thr.poi_visits < raw.poi_visits);
    assert!(thr.fixes < raw.fixes / 10);
}

#[test]
fn energy_ranks_policies_identically() {
    // policies change what is DELIVERED, not what is COMPUTED: energy is
    // identical across policies for the same app behavior
    let user = victim();
    let horizon = user.trace.last().unwrap().time.as_secs();
    let mut energies = Vec::new();
    for policy in [LocationPolicy::Allow, LocationPolicy::Block, LocationPolicy::Coarsen] {
        let mut device = Device::with_position(PositionSource::Trace(user.trace.clone()));
        let app = AppBuilder::new("com.e")
            .permission(backwatch::android::permission::Permission::AccessFineLocation)
            .behavior(
                LocationBehavior::requester([backwatch::android::provider::ProviderKind::Gps], 5)
                    .auto_start(true)
                    .background_interval(60),
            )
            .build();
        let id = device.install(app);
        device.set_location_policy(id, policy).unwrap();
        device.launch(id).unwrap();
        device.move_to_background(id).unwrap();
        device.advance(horizon);
        energies.push(device.energy_used(id).unwrap());
    }
    assert!((energies[0] - energies[1]).abs() < 1e-9);
    assert!((energies[0] - energies[2]).abs() < 1e-9);
}
