//! An injected `plan.step` fault flows through the patch plane: the
//! failed execution reports code `fault-injected`, a rule naming that
//! code fires, and the plan completes. The fault registry is
//! process-wide and the armed site fires in whichever plan reaches it
//! first, so this binary holds a single test and no sibling's plan can
//! take the fault.

use oasys_faults::FaultSpec;
use oasys_plan::{Plan, PlanExecutor, StepOutcome};
use oasys_telemetry::Telemetry;

#[test]
fn injected_step_fault_flows_through_the_patch_plane() {
    let site = "plan.step";
    // fail_once: the first step execution fails with code
    // `fault-injected`; the rule retries and the rerun succeeds.
    oasys_faults::set(site, FaultSpec::FailOnce);
    let plan = Plan::<u32>::builder("p")
        .step("work", |attempts: &mut u32, _| {
            *attempts += 1;
            StepOutcome::Done
        })
        .rule("absorb-fault", ["fault-injected"])
        .retries()
        .build();
    let mut attempts = 0;
    let tel = Telemetry::new();
    let result = PlanExecutor::new().run_with(&plan, &mut attempts, &tel);
    oasys_faults::remove(site);
    result.unwrap();
    assert_eq!(tel.counter("plan.rule_firings"), 1);
    assert_eq!(attempts, 1, "the faulted execution never ran the step body");
}
