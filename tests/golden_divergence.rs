//! Golden divergence: the exact makespan bits and LB iterations of a
//! standard arm and a ULBA arm, on one erosion and one scenario config
//! where the two arms balance at least twice and end up apart.
//!
//! The weak-scaling seed leg balances once with identical arms, so it
//! cannot see a rank loop that mis-wires α, the trigger or the LB-cost
//! feedback. These configs can: any such drift moves a makespan bit or an
//! LB iteration. The pinned values were captured before the ULBA rank loop
//! moved into `ulba_core::driver`.

use ulba::core::policy::LbPolicy;
use ulba::erosion::{run_erosion, ErosionConfig};
use ulba::scenario::{run_scenario, ScenarioConfig, ScenarioKind};

/// `(makespan bits, LB iterations)` of one arm.
type Golden = (u64, Vec<u64>);

fn erosion_arm(policy: LbPolicy) -> Golden {
    let mut cfg = ErosionConfig::scaled(16, 1);
    cfg.iterations = 150;
    cfg.policy = policy;
    let res = run_erosion(&cfg);
    (res.makespan.to_bits(), res.lb_iterations)
}

fn scenario_arm(policy: LbPolicy) -> Golden {
    let mut cfg = ScenarioConfig::tiny(ScenarioKind::DriftingHotspot, 16);
    cfg.iterations = 48;
    cfg.trigger = ulba::scenario::config::TriggerKind::Periodic(6);
    cfg.policy = policy;
    let res = run_scenario(&cfg);
    (res.makespan.to_bits(), res.lb_iterations)
}

/// Both arms balance at least twice and finish apart, so the pins below
/// exercise the α path, not only the standard one.
fn assert_diverging(standard: &Golden, ulba: &Golden) {
    assert!(standard.1.len() >= 2 && ulba.1.len() >= 2, "{standard:?} {ulba:?}");
    assert_ne!(standard.0, ulba.0, "ULBA must leave the standard arm's makespan");
}

#[test]
fn erosion_arms_match_golden_bits() {
    let standard = erosion_arm(LbPolicy::Standard);
    let ulba = erosion_arm(LbPolicy::ulba_fixed(0.4));
    assert_diverging(&standard, &ulba);
    // 28.678123796800055 s and 27.98577743600008 s.
    assert_eq!(standard, (0x403c_ad99_8569_e545, vec![21, 50, 87, 125]));
    assert_eq!(ulba, (0x403b_fc5b_e8f8_c14d, vec![21, 76, 127]));
}

#[test]
fn scenario_arms_match_golden_bits() {
    let standard = scenario_arm(LbPolicy::Standard);
    let ulba = scenario_arm(LbPolicy::ulba_fixed(0.4));
    assert_diverging(&standard, &ulba);
    // 0.03853600320000008 s and 0.03861876160000011 s.
    let periodic = vec![5, 11, 17, 23, 29, 35, 41];
    assert_eq!(standard, (0x3fa3_bafd_b2ec_d393, periodic.clone()));
    assert_eq!(ulba, (0x3fa3_c5d6_9c2b_04d0, periodic));
}
