//! Training-level scheduler audit: gradients and trained parameters must
//! be bitwise identical at every effective thread width, and a step's
//! shards must take the lanes before their layers do.
//!
//! The pool is configured 8 wide and one short training run is repeated
//! under `with_thread_cap` at widths 1, 2, 4 and 8. Each batch-4 step
//! splits into two 2-sample shards, and each shard runs under a cap of
//! `width / shards`: at caps 1 and 2 nothing below the shards fans out,
//! while caps 4 and 8 give each shard 2 and 4 lanes. The tiny model's
//! GEMMs never split into row bands, so the chunking that still varies is
//! the per-sample conv tasks. Because every reduction in the stack is
//! fixed-order, the width must not change a single bit of the resulting
//! parameters, gradients or loss history.
//!
//! `parallel.tasks_spawned` is a process-global counter, so both tests
//! hold [`counter_lock`].

use mmhand_core::cube::CubeConfig;
use mmhand_core::dataset::SegmentSequence;
use mmhand_core::eval::{try_build_cohort, DataConfig};
use mmhand_core::tiny;
use mmhand_core::train::{TrainedModel, Trainer};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Serialises the tests that spawn pool tasks against the one that counts
/// them. Poison-tolerant, so one failing test does not fail the other.
fn counter_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

/// An 8-wide pool (the first call wins, so caps 2/4/8 are genuinely
/// distinct even on a single-CPU runner) and the tiny trainer with its
/// cohort.
fn setup() -> (Trainer, Vec<SegmentSequence>) {
    let _ = mmhand_parallel::configure_threads(8);
    let data =
        DataConfig { cube: CubeConfig { range_max_m: 0.45, ..tiny::cube() }, ..tiny::data(91) };
    let sequences = try_build_cohort(&data).unwrap();
    assert!(!sequences.is_empty());
    (Trainer::new(tiny::model(&data), tiny::train_config()), sequences)
}

/// Everything bit-comparable about a finished run: parameter bits, the
/// final accumulated gradient bits, and the loss history bits.
type Fingerprint = (Vec<u32>, Vec<u32>, Vec<u32>);

fn fingerprint(trained: &TrainedModel) -> Fingerprint {
    let params: Vec<u32> = trained.store.snapshot().iter().map(|v| v.to_bits()).collect();
    let grads: Vec<u32> = trained
        .store
        .ids()
        .into_iter()
        .flat_map(|id| trained.store.grad(id).data().iter().map(|v| v.to_bits()))
        .collect();
    let history: Vec<u32> = trained
        .history
        .iter()
        .flat_map(|e| [e.loss.to_bits(), e.l3d.to_bits(), e.lkine.to_bits()])
        .collect();
    (params, grads, history)
}

#[test]
fn training_is_bitwise_identical_at_widths_1_2_4_8() {
    let _lock = counter_lock();
    let (trainer, sequences) = setup();

    let mut reference: Option<(usize, Fingerprint)> = None;
    for cap in [1usize, 2, 4, 8] {
        let trained = mmhand_parallel::with_thread_cap(cap, || {
            assert_eq!(mmhand_parallel::num_threads(), cap.min(8));
            trainer.try_train(&sequences).unwrap()
        });
        let fp = fingerprint(&trained);
        match &reference {
            None => reference = Some((cap, fp)),
            Some((ref_cap, ref_fp)) => {
                assert_eq!(
                    &fp.0, &ref_fp.0,
                    "parameters differ between widths {ref_cap} and {cap}"
                );
                assert_eq!(
                    &fp.1, &ref_fp.1,
                    "gradients differ between widths {ref_cap} and {cap}"
                );
                assert_eq!(
                    &fp.2, &ref_fp.2,
                    "loss history differs between widths {ref_cap} and {cap}"
                );
            }
        }
    }
}

#[test]
fn shards_that_fill_the_lanes_run_their_layers_inline() {
    let _lock = counter_lock();
    let (trainer, sequences) = setup();
    let tc = &trainer.train_config;
    // Two full batch-4 batches per epoch: 4 steps of two 2-sample shards,
    // which fill a width of 2 exactly.
    assert_eq!(sequences.len(), 2 * tc.batch_size, "no ragged last batch");
    let steps = tc.epochs * 2;
    let shards = tc.batch_size / 2;

    let spawned = mmhand_telemetry::counter("parallel.tasks_spawned");
    let before = spawned.get();
    mmhand_parallel::with_thread_cap(2, || trainer.try_train(&sequences).unwrap());
    assert_eq!(
        spawned.get() - before,
        (steps * shards) as u64,
        "only the shards may reach the pool; their GEMMs and convs run inline"
    );
}
