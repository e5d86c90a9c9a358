//! Parallel parameter sweeps.
//!
//! Each simulation run is single-threaded and deterministic; sweeps over
//! loads / degrees / schemes are embarrassingly parallel, so we fan the
//! points out over crossbeam scoped threads (a shared work queue, capped
//! at the CPU count or an explicit thread budget).
//!
//! Worker panics are caught per job: a panicking point is reported with
//! its index and label (not a bare poisoned-mutex panic from an unrelated
//! thread), and every point that did complete is still returned, in input
//! order, so a 96-point sweep doesn't discard 95 finished simulations
//! because one configuration hit a bug.

use crossbeam::thread;
use std::panic::AssertUnwindSafe;

/// One failed sweep point.
#[derive(Debug, Clone)]
pub struct JobFailure {
    /// Index into the input vector.
    pub index: usize,
    /// Human-readable job label (from the caller's label function).
    pub label: String,
    /// The panic payload, stringified.
    pub panic: String,
}

/// Outcome of a sweep in which at least one job panicked. `completed`
/// has the same length and order as the inputs; failed slots are `None`.
#[derive(Debug)]
pub struct SweepError<O> {
    pub failures: Vec<JobFailure>,
    pub completed: Vec<Option<O>>,
}

impl<O> std::fmt::Display for SweepError<O> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let done = self.completed.iter().filter(|o| o.is_some()).count();
        writeln!(
            f,
            "{} of {} sweep job(s) panicked ({} completed):",
            self.failures.len(),
            self.completed.len(),
            done
        )?;
        for fail in &self.failures {
            writeln!(f, "  job {} ({}): {}", fail.index, fail.label, fail.panic)?;
        }
        Ok(())
    }
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Run `f` over every item of `inputs` in parallel, preserving order, with
/// per-job panic isolation.
///
/// * `threads` — worker cap; `None` uses the available parallelism.
/// * `label` — names job `i` for diagnostics (called before `f` runs).
///
/// On success returns the outputs in input order. If any job panicked,
/// returns a [`SweepError`] carrying each failure's index, label, and
/// panic message plus all completed results.
pub fn try_parallel_map<I, O, F, L>(
    inputs: Vec<I>,
    threads: Option<usize>,
    label: L,
    f: F,
) -> Result<Vec<O>, SweepError<O>>
where
    I: Send,
    O: Send,
    F: Fn(I) -> O + Sync,
    L: Fn(usize, &I) -> String + Sync,
{
    let max_threads = threads
        .filter(|&t| t > 0)
        .or_else(|| std::thread::available_parallelism().map(|n| n.get()).ok())
        .unwrap_or(4);
    let n = inputs.len();
    if n == 0 {
        return Ok(Vec::new());
    }
    let mut results: Vec<Option<O>> = (0..n).map(|_| None).collect();
    let work: std::sync::Mutex<Vec<(usize, I)>> =
        std::sync::Mutex::new(inputs.into_iter().enumerate().rev().collect());
    let slots: Vec<std::sync::Mutex<&mut Option<O>>> =
        results.iter_mut().map(std::sync::Mutex::new).collect();
    let failures: std::sync::Mutex<Vec<JobFailure>> = std::sync::Mutex::new(Vec::new());
    thread::scope(|s| {
        for _ in 0..max_threads.min(n) {
            s.spawn(|_| loop {
                // These locks only guard push/pop — no user code runs while
                // they are held, and job panics are caught below, so the
                // mutexes cannot be poisoned.
                let item = work.lock().expect("work queue lock").pop();
                match item {
                    Some((i, input)) => {
                        let job_label = label(i, &input);
                        match std::panic::catch_unwind(AssertUnwindSafe(|| f(input))) {
                            Ok(out) => {
                                **slots[i].lock().expect("slot lock") = Some(out);
                            }
                            Err(payload) => {
                                failures.lock().expect("failure lock").push(JobFailure {
                                    index: i,
                                    label: job_label,
                                    panic: panic_message(payload),
                                });
                            }
                        }
                    }
                    None => break,
                }
            });
        }
    })
    .expect("sweep workers never propagate panics");
    drop(slots);
    let mut failures = failures.into_inner().expect("failure lock");
    if failures.is_empty() {
        Ok(results
            .into_iter()
            .map(|o| o.expect("every non-failed slot is filled"))
            .collect())
    } else {
        failures.sort_by_key(|f| f.index);
        Err(SweepError {
            failures,
            completed: results,
        })
    }
}

/// Run `f` over every item of `inputs` in parallel, preserving order.
///
/// Panics if any job panicked, naming each failing job's index — callers
/// with richer labels or a need to salvage partial results should use
/// [`try_parallel_map`].
pub fn parallel_map<I, O, F>(inputs: Vec<I>, f: F) -> Vec<O>
where
    I: Send,
    O: Send,
    F: Fn(I) -> O + Sync,
{
    match try_parallel_map(inputs, None, |i, _| format!("#{i}"), f) {
        Ok(out) => out,
        Err(err) => panic!("{err}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_order_and_completeness() {
        let out = parallel_map((0..100).collect(), |x: i32| x * x);
        assert_eq!(out, (0..100).map(|x| x * x).collect::<Vec<_>>());
    }

    #[test]
    fn empty_input() {
        let out: Vec<i32> = parallel_map(Vec::<i32>::new(), |x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn single_item() {
        assert_eq!(parallel_map(vec![7], |x: u64| x + 1), vec![8]);
    }

    #[test]
    #[should_panic(expected = "sweep job(s) panicked")]
    fn worker_panic_propagates() {
        parallel_map(vec![1, 2, 3], |x: i32| {
            if x == 2 {
                panic!("boom");
            }
            x
        });
    }

    #[test]
    fn failure_carries_label_index_and_completed_results() {
        let err = try_parallel_map(
            vec![10, 20, 30, 40],
            Some(2),
            |i, x| format!("point{i}={x}"),
            |x: i32| {
                if x == 30 {
                    panic!("bad config {x}");
                }
                x * 2
            },
        )
        .expect_err("job 2 must fail");
        assert_eq!(err.failures.len(), 1);
        assert_eq!(err.failures[0].index, 2);
        assert_eq!(err.failures[0].label, "point2=30");
        assert!(err.failures[0].panic.contains("bad config 30"));
        // Remaining results are intact and in input order.
        assert_eq!(err.completed, vec![Some(20), Some(40), None, Some(80)]);
        let msg = err.to_string();
        assert!(msg.contains("job 2 (point2=30)"), "{msg}");
    }

    #[test]
    fn multiple_failures_sorted_by_index() {
        let err = try_parallel_map(
            (0..8).collect(),
            Some(3),
            |i, _| format!("j{i}"),
            |x: i32| {
                if x % 2 == 1 {
                    panic!("odd {x}");
                }
                x
            },
        )
        .expect_err("odd jobs fail");
        let idx: Vec<usize> = err.failures.iter().map(|f| f.index).collect();
        assert_eq!(idx, vec![1, 3, 5, 7]);
        assert_eq!(err.completed[0], Some(0));
        assert_eq!(err.completed[1], None);
    }

    #[test]
    fn explicit_thread_cap_still_completes_everything() {
        let out = try_parallel_map(
            (0..40).collect(),
            Some(1),
            |i, _| format!("{i}"),
            |x: i32| x + 1,
        )
        .expect("no failures");
        assert_eq!(out, (1..41).collect::<Vec<_>>());
    }
}
