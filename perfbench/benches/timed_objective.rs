//! A forwarding [`Objective`] that records one `objective.*` span per call.
//!
//! Handed to `NewtonCg::step_ws` in place of the objective it wraps, it
//! shows how a Newton step's wall time splits between the solver's own work
//! and the gradient, Hessian-vector and line-search evaluations it asks for.

use crate::spans;
use nadmm_device::{Device, Workspace};
use nadmm_objective::{HvpOperator, HvpState, Objective, OpCost};

pub struct TimedObjective<'a> {
    inner: &'a dyn Objective,
}

impl<'a> TimedObjective<'a> {
    pub fn new(inner: &'a dyn Objective) -> Self {
        Self { inner }
    }
}

impl Objective for TimedObjective<'_> {
    fn dim(&self) -> usize {
        self.inner.dim()
    }
    fn num_samples(&self) -> usize {
        self.inner.num_samples()
    }
    fn value(&self, x: &[f64]) -> f64 {
        spans::span("objective.value", || self.inner.value(x))
    }
    fn gradient(&self, x: &[f64]) -> Vec<f64> {
        spans::span("objective.gradient", || self.inner.gradient(x))
    }
    fn value_and_gradient(&self, x: &[f64]) -> (f64, Vec<f64>) {
        spans::span("objective.value_and_gradient", || self.inner.value_and_gradient(x))
    }
    fn hessian_vec(&self, x: &[f64], v: &[f64]) -> Vec<f64> {
        spans::span("objective.hessian_vec", || self.inner.hessian_vec(x, v))
    }
    fn hvp_operator<'b>(&'b self, x: &[f64]) -> HvpOperator<'b> {
        self.inner.hvp_operator(x)
    }
    fn device(&self) -> Option<&Device> {
        self.inner.device()
    }
    fn value_ws(&self, x: &[f64], ws: &mut Workspace) -> f64 {
        spans::span("objective.value_ws", || self.inner.value_ws(x, ws))
    }
    fn gradient_into(&self, x: &[f64], out: &mut [f64], ws: &mut Workspace) {
        spans::span("objective.gradient_into", || self.inner.gradient_into(x, out, ws))
    }
    fn value_and_gradient_into(&self, x: &[f64], out: &mut [f64], ws: &mut Workspace) -> f64 {
        spans::span("objective.value_and_gradient_into", || {
            self.inner.value_and_gradient_into(x, out, ws)
        })
    }
    fn hessian_vec_into(&self, x: &[f64], v: &[f64], out: &mut [f64], ws: &mut Workspace) {
        spans::span("objective.hessian_vec_into", || self.inner.hessian_vec_into(x, v, out, ws))
    }
    fn prepare_hvp(&self, x: &[f64], ws: &mut Workspace) -> HvpState {
        spans::span("objective.prepare_hvp", || self.inner.prepare_hvp(x, ws))
    }
    fn hvp_prepared_into(&self, state: &HvpState, v: &[f64], out: &mut [f64], ws: &mut Workspace) {
        spans::span("objective.hvp_prepared_into", || {
            self.inner.hvp_prepared_into(state, v, out, ws)
        })
    }
    fn release_hvp(&self, state: HvpState, ws: &mut Workspace) {
        spans::span("objective.release_hvp", || self.inner.release_hvp(state, ws))
    }
    fn cost_value_grad(&self) -> OpCost {
        self.inner.cost_value_grad()
    }
    fn cost_hessian_vec(&self) -> OpCost {
        self.inner.cost_hessian_vec()
    }
}
