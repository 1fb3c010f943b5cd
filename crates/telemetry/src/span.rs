//! RAII scoped timers with nesting.
//!
//! [`crate::span()`] returns a [`Span`] guard; on drop it accumulates the
//! elapsed wall time and a call count into the global registry under its
//! *path* — nested spans key as `outer/inner`, so `ppo_epochs` inside
//! `train_iteration` accumulates separately from a bare `ppo_epochs`.
//!
//! The nesting stack is thread-local (each thread has its own path), the
//! registry is shared. A worker thread starts with an empty path unless it
//! enters its spawner's [`SpanContext`], after which its spans record
//! under the spawner's path (`train_iteration/ppo_epochs` on every thread
//! that runs policy epochs). Guards must drop in LIFO order, which scope-based
//! usage guarantees. When telemetry is disabled, guard construction is a
//! single atomic load and drop is a no-op.

use std::cell::RefCell;
use std::time::{Duration, Instant};

thread_local! {
    static STACK: RefCell<Vec<&'static str>> = const { RefCell::new(Vec::new()) };
}

/// Accumulated statistics for one span path.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanStat {
    /// Number of completed calls.
    pub calls: u64,
    /// Total wall time across calls.
    pub total: Duration,
}

impl SpanStat {
    /// Mean wall time per call (zero when never called).
    pub fn mean(&self) -> Duration {
        if self.calls == 0 {
            Duration::ZERO
        } else {
            self.total / self.calls as u32
        }
    }
}

/// A live scoped timer; finishes (and records) on drop.
#[derive(Debug)]
pub struct Span {
    data: Option<(Instant, String)>,
}

impl Span {
    /// An inert guard (telemetry disabled).
    pub(crate) fn noop() -> Self {
        Self { data: None }
    }

    /// Start a live guard, pushing `name` onto this thread's nesting stack.
    pub(crate) fn enter(name: &'static str) -> Self {
        let path = STACK.with(|s| {
            let mut s = s.borrow_mut();
            s.push(name);
            s.join("/")
        });
        Self { data: Some((Instant::now(), path)) }
    }

    /// The span's full path (`outer/inner`); `None` for inert guards.
    pub fn path(&self) -> Option<&str> {
        self.data.as_ref().map(|(_, p)| p.as_str())
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some((start, path)) = self.data.take() {
            let elapsed = start.elapsed();
            STACK.with(|s| {
                s.borrow_mut().pop();
            });
            crate::record_span(path, elapsed);
        }
    }
}

/// A thread's open span path, captured (by [`crate::span_context`]) for a
/// worker thread it starts to [`enter`](Self::enter). Empty while
/// telemetry is off.
#[derive(Debug, Clone, Default)]
pub struct SpanContext(Vec<&'static str>);

impl SpanContext {
    /// The calling thread's open span path.
    pub(crate) fn capture() -> Self {
        Self(STACK.with(|s| s.borrow().clone()))
    }

    /// Adopt the captured path on the calling thread until the guard drops:
    /// spans opened meanwhile record under it, as if nested in the
    /// capturing thread's open spans. Those spans themselves are not
    /// recorded again; they stay the capturing thread's.
    #[must_use = "the path is adopted only while the guard lives"]
    pub fn enter(&self) -> EnteredContext {
        if self.0.is_empty() {
            return EnteredContext { saved: None };
        }
        let saved = STACK.with(|s| std::mem::replace(&mut *s.borrow_mut(), self.0.clone()));
        EnteredContext { saved: Some(saved) }
    }
}

/// The guard of [`SpanContext::enter`]; restores the thread's own path on
/// drop.
#[derive(Debug)]
pub struct EnteredContext {
    saved: Option<Vec<&'static str>>,
}

impl Drop for EnteredContext {
    fn drop(&mut self) {
        if let Some(saved) = self.saved.take() {
            STACK.with(|s| *s.borrow_mut() = saved);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noop_span_has_no_path() {
        let s = Span::noop();
        assert_eq!(s.path(), None);
    }

    #[test]
    fn mean_of_zero_calls_is_zero() {
        assert_eq!(SpanStat::default().mean(), Duration::ZERO);
    }

    #[test]
    fn mean_divides_total_by_calls() {
        let s = SpanStat { calls: 4, total: Duration::from_millis(100) };
        assert_eq!(s.mean(), Duration::from_millis(25));
    }
}
