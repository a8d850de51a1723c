//! The OASYS planning engine: plans, steps, goals, and patch rules.
//!
//! The paper's central implementation idea (Section 3.3): specification
//! translation is performed by a **plan** stored with each topology
//! template — a rough ordering of largely algorithmic steps that
//! manipulate circuit equations numerically — while **rules** fire when a
//! step fails to meet its goals, patching the plan by modifying the design
//! state and re-running part of it:
//!
//! > *"Rules fire at the end of each plan step to correct errors, and
//! > modify the dynamic flow of the plan."*
//!
//! This crate is deliberately generic: the state type `S` is whatever a
//! block designer needs (an op-amp sizing state, a mirror sizing state…).
//! The executor enforces bounded patching — the paper's conjecture that
//! *good plans have predictable failure modes* means a small number of
//! rule firings should suffice, so unbounded rework indicates a broken
//! knowledge base and is reported as an error rather than looping.
//!
//! # Examples
//!
//! A plan with a patch rule that relaxes the target and restarts. A rule
//! is written once: the failure codes it handles, an optional guard on
//! the state (`.when`), an optional patch (`.patch`), and one
//! continuation (`.retries()`, `.restarts_from(step)` or
//! `.aborts(reason)`). The executor runs exactly that, and
//! [`analyze()`] reads the same declaration. Step bodies and patches get
//! the run's [`DesignContext`] beside the state (unused here), so a plan
//! keeps no run's data and one stored plan serves every run. The run's
//! telemetry is its history:
//!
//! ```
//! use oasys_plan::{Plan, PlanExecutor, StepOutcome};
//! use oasys_telemetry::Telemetry;
//!
//! struct State { target: f64, achieved: f64 }
//!
//! let plan = Plan::<State>::builder("toy")
//!     .step("attempt", |s: &mut State, _ctx| {
//!         s.achieved = 10.0; // the best this topology can do
//!         if s.achieved >= s.target {
//!             StepOutcome::Done
//!         } else {
//!             StepOutcome::failed("gain-short", "target unreachable")
//!         }
//!     })
//!     .rule("relax-target", ["gain-short"])
//!     .when(|s: &State| s.target > 1.0)
//!     .patch(|s: &mut State, _ctx| {
//!         s.target /= 2.0;
//!         Ok(())
//!     })
//!     .restarts_from("attempt")
//!     .build();
//!
//! let mut state = State { target: 30.0, achieved: 0.0 };
//! let tel = Telemetry::new();
//! PlanExecutor::new()
//!     .run_with(&plan, &mut state, &tel)
//!     .expect("plan converges");
//! assert!(state.achieved >= state.target);
//! assert_eq!(tel.counter("plan.rule_firings"), 2); // 30 → 15 → 7.5 ≤ 10
//! ```

#![warn(missing_docs)]

pub mod analyze;
pub mod engine;
mod error;
mod executor;
pub mod interval;
mod plan;

pub use analyze::analyze;
pub use engine::{
    design_candidates, smallest_area, BlockDesigner, CacheKey, CandidateResults, DesignContext,
    MemoCache, SearchOptions, Selected, SelectionFailure, StyleRejection,
};
pub use error::PlanError;
pub use executor::{ExecutorConfig, PlanExecutor};
pub use interval::{first_infeasible, Interval, PerfRelation};
pub use plan::{PatchAction, Plan, PlanBuilder, RuleMeta, StepFailure, StepMeta, StepOutcome};
