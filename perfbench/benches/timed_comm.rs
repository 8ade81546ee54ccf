//! A forwarding [`Communicator`] that records one `cluster.*` span per call.
//!
//! Every method forwards to the wrapped communicator unchanged (the
//! tombstone and split-phase overrides included), so the solver above it
//! runs the same program; the wrapper only reads the clock and the payload
//! length around each call.

use crate::spans;
use nadmm_cluster::{CollectiveHandle, CommStats, Communicator};

pub struct TimedComm<'a> {
    inner: &'a mut dyn Communicator,
}

impl<'a> TimedComm<'a> {
    pub fn new(inner: &'a mut dyn Communicator) -> Self {
        Self { inner }
    }
}

/// Times one collective call: the span's simulated seconds are what the
/// wrapped communicator's clock advanced by during the call.
macro_rules! timed {
    ($self:ident, $name:literal, $elems:expr, $call:expr) => {{
        let bytes = ($elems * 8) as u64;
        let sim0 = $self.inner.elapsed();
        let open = spans::begin($name);
        let out = $call;
        spans::end(open, $self.inner.elapsed() - sim0, bytes);
        out
    }};
}

impl Communicator for TimedComm<'_> {
    fn rank(&self) -> usize {
        self.inner.rank()
    }
    fn size(&self) -> usize {
        self.inner.size()
    }
    fn barrier(&mut self) {
        timed!(self, "cluster.barrier", 0, self.inner.barrier())
    }
    fn allgather(&mut self, data: &[f64]) -> Vec<Vec<f64>> {
        timed!(self, "cluster.allgather", data.len(), self.inner.allgather(data))
    }
    fn allreduce_sum(&mut self, data: &[f64]) -> Vec<f64> {
        timed!(self, "cluster.allreduce_sum", data.len(), self.inner.allreduce_sum(data))
    }
    fn reduce_sum_root(&mut self, data: &[f64]) -> Option<Vec<f64>> {
        timed!(self, "cluster.reduce_sum_root", data.len(), self.inner.reduce_sum_root(data))
    }
    fn gather_root(&mut self, data: &[f64]) -> Option<Vec<Vec<f64>>> {
        timed!(self, "cluster.gather_root", data.len(), self.inner.gather_root(data))
    }
    fn broadcast_root(&mut self, data: Option<&[f64]>) -> Vec<f64> {
        let elems = data.map_or(0, <[f64]>::len);
        timed!(self, "cluster.broadcast_root", elems, self.inner.broadcast_root(data))
    }
    fn scatter_root(&mut self, parts: Option<&[Vec<f64>]>) -> Vec<f64> {
        let elems = parts.map_or(0, |p| p.iter().map(Vec::len).sum());
        timed!(self, "cluster.scatter_root", elems, self.inner.scatter_root(parts))
    }
    fn allreduce_sum_into(&mut self, buf: &mut [f64]) {
        timed!(
            self,
            "cluster.allreduce_sum_into",
            buf.len(),
            self.inner.allreduce_sum_into(buf)
        )
    }
    fn allreduce_max_into(&mut self, buf: &mut [f64]) {
        timed!(
            self,
            "cluster.allreduce_max_into",
            buf.len(),
            self.inner.allreduce_max_into(buf)
        )
    }
    fn reduce_sum_root_into(&mut self, buf: &mut [f64]) -> bool {
        timed!(
            self,
            "cluster.reduce_sum_root_into",
            buf.len(),
            self.inner.reduce_sum_root_into(buf)
        )
    }
    fn broadcast_root_into(&mut self, buf: &mut [f64]) {
        timed!(
            self,
            "cluster.broadcast_root_into",
            buf.len(),
            self.inner.broadcast_root_into(buf)
        )
    }
    fn reduce_sum_root_tombstone(&mut self, len: usize) -> bool {
        timed!(
            self,
            "cluster.reduce_sum_root_tombstone",
            len,
            self.inner.reduce_sum_root_tombstone(len)
        )
    }
    fn start_allreduce_sum_max_tombstone(&mut self, len: usize, sum_len: usize) -> CollectiveHandle {
        timed!(
            self,
            "cluster.start_allreduce_sum_max_tombstone",
            len,
            self.inner.start_allreduce_sum_max_tombstone(len, sum_len)
        )
    }
    fn allgather_into(&mut self, data: &[f64], out: &mut [f64]) {
        timed!(
            self,
            "cluster.allgather_into",
            data.len(),
            self.inner.allgather_into(data, out)
        )
    }
    fn start_allreduce_sum(&mut self, data: &[f64]) -> CollectiveHandle {
        timed!(
            self,
            "cluster.start_allreduce_sum",
            data.len(),
            self.inner.start_allreduce_sum(data)
        )
    }
    fn start_allreduce_max(&mut self, data: &[f64]) -> CollectiveHandle {
        timed!(
            self,
            "cluster.start_allreduce_max",
            data.len(),
            self.inner.start_allreduce_max(data)
        )
    }
    fn start_allreduce_sum_max(&mut self, data: &[f64], sum_len: usize) -> CollectiveHandle {
        timed!(
            self,
            "cluster.start_allreduce_sum_max",
            data.len(),
            self.inner.start_allreduce_sum_max(data, sum_len)
        )
    }
    fn wait_into(&mut self, handle: CollectiveHandle, out: &mut [f64]) {
        timed!(self, "cluster.wait_into", 0, self.inner.wait_into(handle, out))
    }
    fn allreduce_scalar_sum(&mut self, v: f64) -> f64 {
        timed!(self, "cluster.allreduce_scalar_sum", 1, self.inner.allreduce_scalar_sum(v))
    }
    fn allreduce_scalar_max(&mut self, v: f64) -> f64 {
        timed!(self, "cluster.allreduce_scalar_max", 1, self.inner.allreduce_scalar_max(v))
    }
    fn advance_compute(&mut self, dt: f64) {
        self.inner.advance_compute(dt)
    }
    fn elapsed(&self) -> f64 {
        self.inner.elapsed()
    }
    fn stats(&self) -> CommStats {
        self.inner.stats()
    }
}
