//! Restorable component state for shared-prefix resimulation.
//!
//! Every crash run of a crash cell shares the cell's clean prefix; the
//! [`Snapshot`] trait lets each machine component capture its full state at
//! a quiescent engine boundary and later restore it exactly, so a crash run
//! can resume from a checkpoint just before it instead of t=0. The contract
//! is strict byte-identity: a component restored from a snapshot must
//! behave exactly as if the prefix had just been simulated — same
//! observable state, same counters, same subsequent event stream —
//! whatever state the component held before the restore. A crash cell
//! restores checkpoints into machines that earlier runs of the cell used.

/// A component whose complete state can be captured and restored.
///
/// Implementations must guarantee that after `restore(&s)` the component is
/// indistinguishable from its state at the moment `s = snapshot()` was
/// taken. For Arc-COW backed components (the paged PM media, the word
/// images) a snapshot is a page-table copy and pointer bumps; for flat
/// slabs (the caches) it is a sparse copy of the occupied entries.
pub trait Snapshot {
    /// The captured state. `Send + Sync`, so a checkpoint can move to or
    /// be read from any worker thread.
    type State: Send + Sync;

    /// Capture the component's complete state.
    fn snapshot(&self) -> Self::State;

    /// Restore the component to exactly the captured state.
    fn restore(&mut self, state: &Self::State);
}

/// Implements [`Snapshot`] with `State = Self` for a `Clone` type.
///
/// Correct whenever `Clone` captures the complete component state — true
/// for every plain-data component (and for the Arc-COW media, where clone
/// is a reference bump and the pages copy lazily on the next write).
#[macro_export]
macro_rules! impl_snapshot_via_clone {
    ($($ty:ty),+ $(,)?) => {$(
        impl $crate::Snapshot for $ty {
            type State = $ty;

            fn snapshot(&self) -> $ty {
                self.clone()
            }

            fn restore(&mut self, state: &$ty) {
                self.clone_from(state);
            }
        }
    )+};
}
