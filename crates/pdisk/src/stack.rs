//! The production stack, once.
//!
//! Every site that runs a sort on protected disks — the CLI, the job
//! server, a distsort shard, the chaos target, the crash matrix — wants
//! the same layers in the same order and differs only in which of them
//! are switched on.  [`StackSpec`] is that choice as a value and
//! [`StackSpec::build`] the one place that knows the order, bottom to top:
//!
//! ```text
//! Tracing?( Crashing?( Retrying?( slot( Parity?( Faulty?( backend ))))))
//! ```
//!
//! * `Parity` sits **over** the injector, so it observes permanent faults
//!   and absorbs them, and **under** retry, so transient ones pass through
//!   it and are retried;
//! * the `slot` — the one layer a downstream crate adds (`srm-dist`'s
//!   fence, the chaos target's planted misclassifier; `()` when empty) —
//!   sits **under** retry, so a re-issued operation passes the fence again
//!   and a relabelled error is what the retry layer classifies;
//! * `Crashing` is outermost but for the trace, so its boundaries bracket
//!   whole logical operations, and it shares its clock with the parity
//!   commit, so one numbering covers both;
//! * a resumed manifest's dead disks are re-marked before the trace sink
//!   goes in: the deaths belong to an earlier incarnation's trace.
//!
//! A `?` layer is an `Option` ([`Layer`] for `Option<L>`: `None` is every
//! default hook), so every combination of switches is **one type**,
//! [`BuiltStack`], and the sorters are compiled for it once per backend.
//! What the sites used to reach for through `.inner_mut()` chains are
//! inherent methods on it.

use std::path::PathBuf;

use crate::addr::DiskId;
use crate::backend::DiskArray;
use crate::crash::{CrashClock, Crashing};
use crate::error::{PdiskError, Result};
use crate::faulty::{FaultModel, Faulty};
use crate::layer::{Layer, Stack};
use crate::parity::{Parity, ParityDiskArray};
use crate::record::Record;
use crate::retry::{RetryPolicy, Retrying};
use crate::timing::ArrayTiming;
use crate::trace::{Tagged, TraceSink, Tracing};

/// The parity layer's share of a [`StackSpec`].
#[derive(Debug, Default)]
pub struct ParitySpec {
    /// Sidecar file the stripe state persists to and is reloaded from
    /// ([`ParityDiskArray::with_store`]).
    pub store: Option<PathBuf>,
    /// Disks a resumed manifest records dead, re-marked before any I/O.
    pub dead: Vec<DiskId>,
    /// Straggler hedging ([`ParityDiskArray::set_hedging`]).
    pub hedge: Option<(ArrayTiming, f64)>,
}

/// Which layers of the production stack are on, and with what (see the
/// module docs for the order [`StackSpec::build`] puts them in).
#[derive(Debug, Default)]
pub struct StackSpec {
    /// Inject faults per this model.
    pub faults: Option<FaultModel>,
    /// Rotating parity.
    pub parity: Option<ParitySpec>,
    /// Absorb transient faults under this policy.
    pub retry: Option<RetryPolicy>,
    /// Number (or crash at) every I/O boundary, the parity commit's
    /// included.
    pub crash: Option<CrashClock>,
    /// Record the trace `modelcheck` replays.
    pub trace: bool,
}

/// What [`StackSpec::build`] returns over backend `A` with `X` in the
/// slot, whichever layers are on.
pub type BuiltStack<R, A, X = ()> = Stack<
    R,
    Option<Tracing>,
    Stack<R, Option<Crashing>, Stack<R, Option<Retrying>, Stack<R, X, UnderSlot<R, A>>>>,
>;

/// The part of a [`BuiltStack`] below its slot.
type UnderSlot<R, A> = Stack<R, Option<Parity>, Stack<R, Option<Faulty>, A>>;

impl StackSpec {
    /// Stack the chosen layers on `backend`, with `slot` under retry.
    pub fn build<R: Record, A: DiskArray<R>, X: Layer<R>>(self, backend: A, slot: X) -> Result<BuiltStack<R, A, X>> {
        let faulty = Stack::from_parts(backend, self.faults.map(Faulty::new));
        let parity = match self.parity {
            None => Stack::from_parts(faulty, None),
            Some(spec) => {
                let mut pa = ParityDiskArray::new(faulty)?;
                if let Some(store) = spec.store {
                    pa = pa.with_store(store)?;
                }
                if let Some((timing, after)) = spec.hedge {
                    pa.set_hedging(timing, after);
                }
                for disk in spec.dead {
                    pa.fail_disk(disk)?;
                }
                if let Some(clock) = &self.crash {
                    pa.set_crash_clock(clock.clone());
                }
                Stack::from_parts(pa.inner, Some(pa.layer))
            }
        };
        let retrying = Stack::from_parts(Stack::from_parts(parity, slot), self.retry.map(Retrying::new));
        let mut crashing = Stack::from_parts(retrying, self.crash.map(|clock| Crashing { clock }));
        let tracing = self.trace.then(|| {
            let sink = TraceSink::new();
            crashing.install_trace(sink.clone());
            Tracing { sink }
        });
        Ok(Stack::from_parts(crashing, tracing))
    }
}

impl<R: Record, A: DiskArray<R>, X: Layer<R>> BuiltStack<R, A, X> {
    /// [`ParityDiskArray::fail_disk`]; without a parity layer nothing can
    /// absorb the death.
    pub fn fail_disk(&mut self, disk: DiskId) -> Result<()> {
        let Stack { layer, inner, .. } = &mut self.inner.inner.inner.inner;
        match layer {
            Some(parity) => parity.fail_disk(inner, disk),
            None => Err(PdiskError::Unrecoverable(format!(
                "disk {} died and the stack has no parity layer",
                disk.0
            ))),
        }
    }

    /// The fault layer — its model and the op ordinals it has consumed —
    /// when one is on.
    pub fn faulty(&self) -> Option<&Faulty> {
        self.inner.inner.inner.inner.inner.layer.as_ref()
    }

    /// Drain the recorded trace (empty when tracing is off).
    pub fn take_trace(&self) -> Vec<Tagged> {
        self.layer.as_ref().map(|t| t.sink.take()).unwrap_or_default()
    }

    /// The backend under every layer.
    pub fn backend(&self) -> &A {
        &self.inner.inner.inner.inner.inner.inner
    }

    /// The "reboot": every layer's state dies with the process, the
    /// backend (the disks) survives.
    pub fn into_backend(self) -> A {
        self.inner.inner.inner.inner.inner.inner
    }
}
