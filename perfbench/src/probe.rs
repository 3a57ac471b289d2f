//! Fixed micro-measurements taken beside every run.
//!
//! * The machine-speed probe times a fixed serial reference loop (the
//!   pre-blocked `ikj` 192×192 matmul that `kernel_gate` normalises
//!   against). It does not touch the program, so a slower probe means a
//!   slower or busier machine, not a regression.
//! * The tensor and model probes time the public kernels and training
//!   entry points on the smoke base model's own shapes (ResNet-20, width
//!   4, 8×8 inputs, batch 32).

use crate::common::{median, Outcome};
use automc_bench::scale::PreparedTask;
use automc_models::train::{evaluate, train, Auxiliary, TrainConfig};
use automc_tensor::nn::{Conv2d, Layer};
use automc_tensor::{matmul, rng_from_seed, Tensor};
use std::hint::black_box;
use std::time::Instant;

fn time_s(f: impl FnOnce()) -> f64 {
    let t = Instant::now();
    f();
    t.elapsed().as_secs_f64()
}

/// Median of `reps` timings of `f`, in seconds.
fn median_time(reps: usize, mut f: impl FnMut()) -> f64 {
    let v: Vec<f64> = (0..reps).map(|_| time_s(&mut f)).collect();
    median(&v)
}

fn reference_ikj(a: &[f32], b: &[f32], n: usize) -> Vec<f32> {
    let mut c = vec![0.0f32; n * n];
    for i in 0..n {
        for p in 0..n {
            let av = a[i * n + p];
            let b_row = &b[p * n..(p + 1) * n];
            let c_row = &mut c[i * n..(i + 1) * n];
            for (cv, &bv) in c_row.iter_mut().zip(b_row) {
                *cv += av * bv;
            }
        }
    }
    c
}

/// Machine-speed probe: median milliseconds of the 192³ reference loop.
pub fn machine_ms() -> f64 {
    const N: usize = 192;
    let mut rng = rng_from_seed(5);
    let a = Tensor::randn(&[N, N], 1.0, &mut rng);
    let b = Tensor::randn(&[N, N], 1.0, &mut rng);
    1e3 * median_time(15, || {
        black_box(reference_ikj(black_box(a.data()), black_box(b.data()), N));
    })
}

/// Tensor-layer probes on the smoke model's most frequent convolution
/// (4→4 channels, 3×3, 8×8 maps, batch 32) and the GEMM at its core.
pub fn tensor(out: &mut Outcome) {
    let mut rng = rng_from_seed(11);
    let mut conv = Conv2d::new(4, 4, 3, 3, 1, 1, false, &mut rng);
    let x = Tensor::randn(&[32, 4, 8, 8], 1.0, &mut rng);
    let y = conv.forward(&x, true);
    let g = Tensor::ones(y.dims());
    let fwd = median_time(201, || {
        black_box(conv.forward(black_box(&x), true));
    });
    let bwd = median_time(201, || {
        black_box(conv.backward(black_box(&g)));
    });
    // The convolution's GEMM: weights [out, in·k·k] × columns
    // [in·k·k, batch·h·w].
    let (m, k, n) = (4usize, 36usize, 32 * 64);
    let a = Tensor::randn(&[m, k], 1.0, &mut rng);
    let b = Tensor::randn(&[k, n], 1.0, &mut rng);
    let mm = median_time(401, || {
        black_box(matmul(black_box(&a), black_box(&b)));
    });
    out.put("tensor.matmul_us", mm * 1e6, "us");
    out.put("tensor.conv_fwd_us", fwd * 1e6, "us");
    out.put("tensor.conv_bwd_us", bwd * 1e6, "us");
    out.put(
        "tensor.gemm_gflops_computed",
        2.0 * (m * k * n) as f64 / mm / 1e9,
        "GFLOP/s",
    );
}

/// Model-layer probes on a prepared task: one training epoch over the
/// task's training split and one evaluation over its test split.
pub fn models(out: &mut Outcome, task: &PreparedTask) {
    let mut rng = rng_from_seed(13);
    let epoch = median_time(3, || {
        let mut net = task.base_model.clone_net();
        let cfg = TrainConfig {
            epochs: 1.0,
            ..Default::default()
        };
        black_box(train(
            &mut net,
            &task.train_set,
            &cfg,
            Auxiliary::None,
            &mut rng,
        ));
    });
    let mut net = task.base_model.clone_net();
    let eval = median_time(9, || {
        black_box(evaluate(&mut net, &task.test_set));
    });
    out.put("models.train_epoch_s", epoch, "s");
    out.put("models.evaluate_ms", eval * 1e3, "ms");
}
