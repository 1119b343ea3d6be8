//! The discrete-event list scheduler both layers share (a stream's
//! record point is the other kind of event, [`crate::Event`]).
//!
//! An operation is bound to a resource (the GPU's kernel engine, a PCIe
//! copy engine, the NIC) or to none, and starts when its dependencies
//! have finished *and* its resource is free; the makespan is when the
//! last one ends. [`Schedule::add`] is the one place that rule is
//! computed: the functional device ([`crate::Gpu`]) adds every kernel and
//! copy it issues through it, and `perfmodel` composes each modelled
//! time step from the same calls, bulk-synchronous implementations
//! chaining everything on one stream and the overlap implementations
//! splitting the chains as the functional code does. Nothing here
//! allocates.

/// Resources an operation can occupy. Operations on the same resource
/// serialize in submission order; `None` operations only wait for their
/// dependencies.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum Res {
    /// The GPU's kernel engine.
    GpuCompute,
    /// PCIe host-to-device DMA engine.
    CopyH2D,
    /// PCIe device-to-host DMA engine (same as H2D when the part has one
    /// engine; the caller picks).
    CopyD2H,
    /// The node's network interface.
    Nic,
    /// Pure dependency node (no resource).
    #[default]
    None,
}

/// A scheduled operation: when it starts, and when it ends, which is all
/// its dependents wait for.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct OpId {
    /// Virtual time at which the operation starts.
    pub start: f64,
    /// Virtual time at which the operation finishes.
    pub end: f64,
}

/// A schedule under construction. It keeps no list of ops:
/// each op's end travels in its [`OpId`], so adding one allocates
/// nothing.
#[derive(Debug, Default)]
pub struct Schedule {
    /// When each resource is next free, indexed by `Res`; `None`, the
    /// last variant, has no slot.
    res_free: [f64; 4],
    /// Operations added.
    len: usize,
    /// The latest end so far.
    makespan: f64,
}

impl Schedule {
    /// Add an operation; returns its id. Operations are scheduled eagerly
    /// in submission order (list scheduling): start = max(resource free,
    /// dependencies' end).
    #[inline]
    pub fn add(&mut self, res: Res, dur: f64, deps: &[OpId]) -> OpId {
        assert!(dur >= 0.0, "durations must be non-negative");
        let dep_end = deps.iter().map(|d| d.end).fold(0.0f64, f64::max);
        let free = self.res_free.get_mut(res as usize);
        let start = dep_end.max(free.as_deref().copied().unwrap_or(0.0));
        let end = start + dur;
        if let Some(free) = free {
            *free = end;
        }
        self.len += 1;
        self.makespan = self.makespan.max(end);
        OpId { start, end }
    }

    /// Makespan: when the last operation finishes.
    #[inline]
    pub fn makespan(&self) -> f64 {
        self.makespan
    }

    /// Number of operations.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the schedule is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn independent_ops_on_different_resources_overlap() {
        let mut s = Schedule::default();
        s.add(Res::GpuCompute, 10.0, &[]);
        s.add(Res::CopyH2D, 7.0, &[]);
        assert_eq!(s.makespan(), 10.0);
    }

    #[test]
    fn same_resource_serializes() {
        let mut s = Schedule::default();
        s.add(Res::GpuCompute, 10.0, &[]);
        s.add(Res::GpuCompute, 7.0, &[]);
        assert_eq!(s.makespan(), 17.0);
    }

    #[test]
    fn dependencies_are_honored() {
        let mut s = Schedule::default();
        let a = s.add(Res::CopyD2H, 5.0, &[]);
        let b = s.add(Res::Nic, 3.0, &[a]);
        s.add(Res::CopyH2D, 2.0, &[b]);
        assert_eq!(s.makespan(), 10.0);
    }

    #[test]
    fn overlap_vs_serial_schedules_differ() {
        // The essence of the paper: the same operations, chained vs split.
        let durs = [4.0f64, 6.0, 5.0];
        let mut serial = Schedule::default();
        let k = serial.add(Res::GpuCompute, 10.0, &[]);
        let d = serial.add(Res::CopyD2H, durs[0], &[k]);
        let n = serial.add(Res::Nic, durs[1], &[d]);
        serial.add(Res::CopyH2D, durs[2], &[n]);
        assert_eq!(serial.makespan(), 25.0);

        let mut overlapped = Schedule::default();
        overlapped.add(Res::GpuCompute, 10.0, &[]);
        let d = overlapped.add(Res::CopyD2H, durs[0], &[]);
        let n = overlapped.add(Res::Nic, durs[1], &[d]);
        overlapped.add(Res::CopyH2D, durs[2], &[n]);
        assert_eq!(overlapped.makespan(), 15.0);
    }
}
