//! Training-level scheduler audit: gradients and trained parameters must
//! be bitwise identical at every effective thread width.
//!
//! The pool is configured 8 wide and one short training run is repeated
//! under `with_thread_cap` at widths 1, 2, 4 and 8. The cap changes the
//! task chunking (GEMM bands, shard fan-out) but — because every reduction
//! in the stack is fixed-order — must not change a single bit of the
//! resulting parameters, gradients or loss history.

use mmhand_core::cube::CubeConfig;
use mmhand_core::eval::{try_build_cohort, DataConfig};
use mmhand_core::tiny;
use mmhand_core::train::{TrainedModel, Trainer};

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
    // First call wins; an 8-wide pool makes caps 2/4/8 genuinely distinct
    // even on a single-CPU CI runner.
    let _ = mmhand_parallel::configure_threads(8);
    let data =
        DataConfig { cube: CubeConfig { range_max_m: 0.45, ..tiny::cube() }, ..tiny::data(91) };
    let sequences = try_build_cohort(&data).unwrap();
    assert!(!sequences.is_empty());
    let model_cfg = tiny::model(&data);
    let train_cfg = tiny::train_config();

    let mut reference: Option<(usize, Fingerprint)> = None;
    for cap in [1usize, 2, 4, 8] {
        let trained = mmhand_parallel::with_thread_cap(cap, || {
            assert_eq!(mmhand_parallel::num_threads(), cap.min(8));
            Trainer::new(model_cfg.clone(), train_cfg.clone()).try_train(&sequences).unwrap()
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
