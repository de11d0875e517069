//! The answer check: every served response against `execute_legacy` on the
//! request as written.
//!
//! C&B rewrites under set semantics, so answers compare as sets of distinct
//! rows. The first response to each distinct request is kept; later
//! responses must match it, and after the window it must match the legacy
//! interpreter's answer. Nothing here runs inside a timed span.

use std::cmp::Ordering;

use cnb_engine::{cmp_value, execute_legacy, ServeError};
use cnb_ir::prelude::Value;

use crate::mix::Mix;

/// Per-request outcome record.
#[derive(Default)]
struct Seen {
    /// Rows of the first successful response, as served.
    first: Option<Vec<Value>>,
    /// Successful responses.
    responses: usize,
    /// Responses whose row set differed from the first.
    mismatched: usize,
}

/// Collects responses during the window and judges them afterwards.
pub struct Checker {
    seen: Vec<Seen>,
    errors: usize,
    notes: Vec<String>,
}

/// Verdict over every response the checker saw.
pub struct Verdict {
    /// Responses observed.
    pub attempted: usize,
    /// Typed errors plus wrong answers.
    pub failed: usize,
    /// Distinct requests whose served set differed from the legacy set.
    pub wrong_requests: usize,
}

fn distinct(rows: &[Value]) -> Vec<Value> {
    let mut set = rows.to_vec();
    set.sort_by(cmp_value);
    set.dedup_by(|a, b| cmp_value(a, b) == Ordering::Equal);
    set
}

impl Checker {
    /// A checker for `requests` distinct requests.
    pub fn new(requests: usize) -> Checker {
        Checker {
            seen: (0..requests).map(|_| Seen::default()).collect(),
            errors: 0,
            notes: Vec::new(),
        }
    }

    /// Records a failure outside any response (a plant or a direct call).
    pub fn error(&mut self, note: String) {
        self.errors += 1;
        self.notes.push(note);
    }

    /// Records one response to request `id`.
    pub fn observe(&mut self, id: usize, response: Result<&[Value], &ServeError>) {
        let rows = match response {
            Ok(rows) => rows,
            Err(e) => {
                self.error(format!("request {id}: {e}"));
                return;
            }
        };
        let seen = &mut self.seen[id];
        seen.responses += 1;
        match &seen.first {
            None => seen.first = Some(rows.to_vec()),
            Some(first) => {
                if first.as_slice() != rows && distinct(first) != distinct(rows) {
                    seen.mismatched += 1;
                }
            }
        }
    }

    /// Checks another plan's answer to request `id` against the first
    /// served answer; a different set is a failure.
    pub fn alternative(&mut self, id: usize, plan: usize, rows: &[Value]) {
        let agrees = self.seen[id]
            .first
            .as_ref()
            .is_some_and(|first| distinct(first) == distinct(rows));
        if !agrees {
            self.error(format!(
                "request {id}: emitted plan {plan} answers differently from the served plan"
            ));
        }
    }

    /// Compares each request's first answer with `execute_legacy` on the
    /// request as written and tallies the failures.
    pub fn judge(mut self, mix: &Mix) -> (Verdict, Vec<String>) {
        let mut failed = self.errors;
        let mut wrong_requests = 0;
        let mut attempted = self.errors;
        for (id, seen) in self.seen.iter().enumerate() {
            attempted += seen.responses;
            failed += seen.mismatched;
            if seen.mismatched > 0 {
                self.notes.push(format!(
                    "request {id}: {} responses disagree with the first",
                    seen.mismatched
                ));
            }
            let Some(first) = &seen.first else { continue };
            let request = &mix.requests[id];
            let lane = &mix.lanes[request.lane];
            let expected = match execute_legacy(&lane.db, &request.query) {
                Ok(res) => distinct(&res.rows),
                Err(e) => {
                    self.notes
                        .push(format!("request {id}: legacy oracle failed: {e}"));
                    failed += seen.responses - seen.mismatched;
                    wrong_requests += 1;
                    continue;
                }
            };
            if distinct(first) != expected {
                self.notes.push(format!(
                    "request {id} ({}): served set differs from execute_legacy",
                    lane.label
                ));
                failed += seen.responses - seen.mismatched;
                wrong_requests += 1;
            }
        }
        let verdict = Verdict {
            attempted,
            failed,
            wrong_requests,
        };
        (verdict, self.notes)
    }
}
