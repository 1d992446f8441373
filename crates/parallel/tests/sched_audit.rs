//! Deterministic scheduler audit for the fork-join pool.
//!
//! These tests drive the *real* pool through enumerated task-completion
//! schedules: every spawned task blocks on a turnstile until the schedule
//! says it may finish, so one run exercises exactly one interleaving of
//! task completions. Under every schedule two invariants must hold:
//!
//! * **scope/join** — `scope` does not return until every spawned task has
//!   run, and the forced completion order is exactly the one we dictated;
//! * **fixed-order reduction** — reducing per-task float results in slot
//!   (input) order yields bitwise-identical values no matter which
//!   interleaving produced them.
//!
//! For four tasks all 24 completion orders are enumerated; for six tasks a
//! fixed-seed LCG samples a reproducible subset of the 720 orders.

// The helpers below run inside tests and unwrap as tests do.
#![allow(clippy::unwrap_used)]

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Condvar, Mutex};

use mmhand_parallel::ThreadPool;

/// Blocks each task until the schedule releases its id. `order[k]` is the
/// task allowed to complete at step k, so one `Turnstile` = one schedule.
struct Turnstile {
    order: Vec<usize>,
    step: Mutex<usize>,
    cv: Condvar,
    log: Mutex<Vec<usize>>,
}

impl Turnstile {
    fn new(order: Vec<usize>) -> Self {
        Turnstile {
            order,
            step: Mutex::new(0),
            cv: Condvar::new(),
            log: Mutex::new(Vec::new()),
        }
    }

    /// Blocks until the schedule reaches `id`, then records it and lets the
    /// next task in the schedule proceed.
    fn pass(&self, id: usize) {
        let mut step = self.step.lock().unwrap();
        while self.order[*step] != id {
            step = self.cv.wait(step).unwrap();
        }
        *step += 1;
        self.log.lock().unwrap().push(id);
        self.cv.notify_all();
    }
}

/// A float whose reduction order matters: summing these values in a
/// different order changes the last bit, so the fixed-order invariant is
/// actually load-bearing.
fn work(i: usize) -> f32 {
    ((i as f32) * 0.731_058_6 + 0.1).sin() / (i as f32 + 3.0).sqrt()
}

/// Runs one schedule on `pool`; returns per-slot result bits and the bits
/// of the slot-order reduction.
fn run_schedule(pool: &ThreadPool, order: &[usize]) -> (Vec<u32>, u32) {
    let n = order.len();
    let turnstile = Turnstile::new(order.to_vec());
    let mut slots = vec![0.0f32; n];
    pool.scope(|s| {
        for (i, slot) in slots.iter_mut().enumerate() {
            let t = &turnstile;
            s.spawn(move || {
                let v = work(i);
                t.pass(i);
                *slot = v;
            });
        }
    });
    // Join invariant: the dictated completion order actually happened, and
    // every task finished before `scope` returned.
    assert_eq!(*turnstile.log.lock().unwrap(), order);
    // Fixed-order reduction in slot order — the same discipline the
    // trainer uses for its gradient reduce.
    let sum = slots.iter().fold(0.0f32, |acc, &v| acc + v);
    (slots.iter().map(|v| v.to_bits()).collect(), sum.to_bits())
}

/// All permutations of `0..n` in lexicographic-ish recursion order.
fn permutations(n: usize) -> Vec<Vec<usize>> {
    fn recurse(prefix: &mut Vec<usize>, rest: &mut Vec<usize>, out: &mut Vec<Vec<usize>>) {
        if rest.is_empty() {
            out.push(prefix.clone());
            return;
        }
        for k in 0..rest.len() {
            let v = rest.remove(k);
            prefix.push(v);
            recurse(prefix, rest, out);
            prefix.pop();
            rest.insert(k, v);
        }
    }
    let mut out = Vec::new();
    recurse(&mut Vec::new(), &mut (0..n).collect(), &mut out);
    out
}

#[test]
fn every_completion_order_of_four_tasks_upholds_invariants() {
    // Width 5 = four workers + the helping caller, so all four tasks can
    // sit blocked on the turnstile concurrently under any schedule.
    let pool = ThreadPool::new(5);
    let all = permutations(4);
    assert_eq!(all.len(), 24);
    let mut reference: Option<(Vec<u32>, u32)> = None;
    for order in &all {
        let got = run_schedule(&pool, order);
        match &reference {
            None => reference = Some(got),
            Some(r) => assert_eq!(&got, r, "schedule {order:?} changed results"),
        }
    }
}

#[test]
fn perturbed_schedules_of_six_tasks_uphold_invariants() {
    let pool = ThreadPool::new(7);
    // Fixed-seed LCG Fisher–Yates: a reproducible sample of the 720
    // possible six-task schedules.
    let mut state: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut next = move || {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        (state >> 33) as usize
    };
    let mut reference: Option<(Vec<u32>, u32)> = None;
    for _ in 0..12 {
        let mut order: Vec<usize> = (0..6).collect();
        for i in (1..order.len()).rev() {
            order.swap(i, next() % (i + 1));
        }
        let got = run_schedule(&pool, &order);
        match &reference {
            None => reference = Some(got),
            Some(r) => assert_eq!(&got, r, "schedule {order:?} changed results"),
        }
    }
}

#[test]
fn panicking_task_still_joins_under_every_schedule() {
    // A task that panics right after its turnstile slot must not break the
    // join: the other tasks still run, `scope` still waits for all of
    // them, and the panic is re-raised to the caller afterwards.
    let pool = ThreadPool::new(5);
    for order in permutations(4) {
        let turnstile = Turnstile::new(order.clone());
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.scope(|s| {
                for i in 0..4 {
                    let t = &turnstile;
                    s.spawn(move || {
                        t.pass(i);
                        if i == 2 {
                            panic!("scheduled failure");
                        }
                    });
                }
            });
        }));
        assert!(result.is_err(), "panic was swallowed under schedule {order:?}");
        assert_eq!(*turnstile.log.lock().unwrap(), order);
    }
}
