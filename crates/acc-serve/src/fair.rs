//! Weighted fair queueing across tenants: deficit round-robin (DRR) at
//! shot granularity.
//!
//! Each backlogged tenant sits in a round-robin ring. On each visit a
//! tenant earns `weight × quantum_unit` seconds of deficit and dispatches
//! head-of-line shots while its deficit covers their cost. The quantum
//! unit tracks the largest shot cost ever enqueued, which bounds the scan
//! at roughly two ring passes per dequeue and gives the classic DRR
//! fairness bound: over any backlogged interval, a tenant's served cost
//! deviates from its weight share by at most one maximum job cost.
//!
//! The queue stores job ids only; shot costs and remaining-shot counts
//! live with the caller, supplied through a lookup at dequeue time. Jobs
//! within one tenant are FIFO.

use std::collections::VecDeque;

/// Per-tenant DRR state.
#[derive(Debug, Clone)]
struct TenantQueue {
    weight: u32,
    deficit: f64,
    jobs: VecDeque<usize>,
}

/// Deficit round-robin scheduler over tenant job queues.
#[derive(Debug, Clone)]
pub struct DrrQueue {
    tenants: Vec<TenantQueue>,
    /// Backlogged tenants, round-robin order.
    ring: VecDeque<usize>,
    /// Current quantum unit: the largest single-shot cost seen.
    quantum_unit: f64,
}

impl DrrQueue {
    /// Queue over `weights.len()` tenants.
    pub fn new(weights: &[u32]) -> Self {
        Self {
            tenants: weights
                .iter()
                .map(|&w| TenantQueue {
                    weight: w.max(1),
                    deficit: 0.0,
                    jobs: VecDeque::new(),
                })
                .collect(),
            ring: VecDeque::new(),
            quantum_unit: 1.0,
        }
    }

    /// True when no tenant has queued work.
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// Jobs queued across all tenants.
    pub fn len(&self) -> usize {
        self.tenants.iter().map(|t| t.jobs.len()).sum()
    }

    /// Enqueue `job` for `tenant` (FIFO within the tenant);
    /// `max_shot_cost_s` keeps the quantum unit current.
    pub fn enqueue(&mut self, tenant: usize, job: usize, max_shot_cost_s: f64) {
        self.quantum_unit = self.quantum_unit.max(max_shot_cost_s);
        let was_empty = self.tenants[tenant].jobs.is_empty();
        self.tenants[tenant].jobs.push_back(job);
        if was_empty {
            self.ring.push_back(tenant);
        }
    }

    /// Put `job` back at the *front* of its tenant's queue (a shot failed
    /// on a device and must be re-dispatched without losing its turn).
    pub fn requeue_front(&mut self, tenant: usize, job: usize) {
        let was_empty = self.tenants[tenant].jobs.is_empty();
        self.tenants[tenant].jobs.push_front(job);
        if was_empty {
            // Rejoin at the ring head: the tenant already paid deficit for
            // this work.
            self.ring.push_front(tenant);
        }
    }

    /// Remove every queued occurrence of `job` (the job was shed or
    /// cancelled). Returns true when anything was removed.
    pub fn remove_job(&mut self, tenant: usize, job: usize) -> bool {
        let q = &mut self.tenants[tenant];
        let before = q.jobs.len();
        q.jobs.retain(|&j| j != job);
        if q.jobs.is_empty() && before > 0 {
            q.deficit = 0.0;
            self.ring.retain(|&t| t != tenant);
        }
        before != q.jobs.len()
    }

    /// Dequeue the next shot's job under DRR. `shot_cost` maps a queued
    /// job id to its next shot's cost; `has_more_shots` reports whether
    /// the job still has undispatched shots *after* this one. Returns
    /// `(tenant, job)` or None when idle.
    pub fn next_shot(
        &mut self,
        mut shot_cost: impl FnMut(usize) -> f64,
        mut has_more_shots: impl FnMut(usize) -> bool,
    ) -> Option<(usize, usize)> {
        // quantum_unit ≥ every queued shot cost, so each tenant needs at
        // most ⌈1/weight⌉ ≤ 1 extra visit to afford its head shot: the
        // ring settles within two passes. The bound below is a hard stop
        // against a miscosted job, not the expected path.
        let mut visits = 0usize;
        let max_visits = 2 * self.ring.len().max(1) + 2;
        while visits < max_visits {
            let &t = self.ring.front()?;
            let cost = {
                let q = &self.tenants[t];
                let &job = q.jobs.front().expect("backlogged tenant in ring");
                shot_cost(job)
            };
            if self.tenants[t].deficit >= cost {
                let q = &mut self.tenants[t];
                q.deficit -= cost;
                let &job = q.jobs.front().expect("backlogged tenant in ring");
                if !has_more_shots(job) {
                    q.jobs.pop_front();
                    if q.jobs.is_empty() {
                        q.deficit = 0.0;
                        self.ring.pop_front();
                    }
                }
                return Some((t, job));
            }
            // Can't afford the head shot: earn a quantum and rotate.
            let quantum = self.quantum_unit * f64::from(self.tenants[t].weight);
            self.tenants[t].deficit += quantum;
            self.ring.rotate_left(1);
            visits += 1;
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Drain `n` dequeues with unit shot cost and single-shot jobs.
    fn drain(q: &mut DrrQueue, n: usize) -> Vec<(usize, usize)> {
        (0..n)
            .map_while(|_| q.next_shot(|_| 1.0, |_| false))
            .collect()
    }

    #[test]
    fn single_tenant_is_fifo() {
        let mut q = DrrQueue::new(&[1]);
        for j in 0..3 {
            q.enqueue(0, j, 1.0);
        }
        let order: Vec<usize> = drain(&mut q, 3).into_iter().map(|(_, j)| j).collect();
        assert_eq!(order, vec![0, 1, 2]);
        assert!(q.is_empty());
    }

    #[test]
    fn weights_split_service_proportionally() {
        // Tenant 0 weight 2, tenant 1 weight 1, both deeply backlogged.
        let mut q = DrrQueue::new(&[2, 1]);
        for j in 0..30 {
            q.enqueue(0, j, 1.0);
            q.enqueue(1, 100 + j, 1.0);
        }
        let first = drain(&mut q, 30);
        let t0 = first.iter().filter(|&&(t, _)| t == 0).count();
        let t1 = first.len() - t0;
        // 2:1 split within one max job cost of exact.
        assert!(
            (t0 as f64 - 20.0).abs() <= 1.0 && (t1 as f64 - 10.0).abs() <= 1.0,
            "t0={t0} t1={t1}"
        );
    }

    #[test]
    fn multi_shot_job_stays_at_head_until_exhausted() {
        let mut q = DrrQueue::new(&[1]);
        q.enqueue(0, 7, 1.0);
        q.enqueue(0, 8, 1.0);
        let mut remaining = 3u32; // job 7 has three shots
        let mut order = Vec::new();
        while let Some((_, j)) = q.next_shot(|_| 1.0, |j| j == 7 && remaining > 1) {
            if j == 7 {
                remaining -= 1;
            }
            order.push(j);
        }
        assert_eq!(order, vec![7, 7, 7, 8]);
    }

    #[test]
    fn remove_job_unlinks_tenant_when_empty() {
        let mut q = DrrQueue::new(&[1, 1]);
        q.enqueue(0, 1, 1.0);
        q.enqueue(1, 2, 1.0);
        assert!(q.remove_job(0, 1));
        assert!(!q.remove_job(0, 1), "already gone");
        let rest = drain(&mut q, 4);
        assert_eq!(rest, vec![(1, 2)]);
    }

    #[test]
    fn requeue_front_preserves_turn() {
        let mut q = DrrQueue::new(&[1]);
        q.enqueue(0, 1, 1.0);
        q.enqueue(0, 2, 1.0);
        let (_, j) = q.next_shot(|_| 1.0, |_| false).unwrap();
        assert_eq!(j, 1);
        q.requeue_front(0, 1);
        let order: Vec<usize> = drain(&mut q, 3).into_iter().map(|(_, j)| j).collect();
        assert_eq!(order, vec![1, 2]);
    }

    #[test]
    fn costly_shots_respect_weights_too() {
        // Tenant 0's shots cost 3.0, tenant 1's cost 1.0; equal weights →
        // tenant 1 should complete ~3× as many shots.
        let mut q = DrrQueue::new(&[1, 1]);
        for j in 0..20 {
            q.enqueue(0, j, 3.0);
            q.enqueue(1, 100 + j, 3.0);
        }
        let mut t0_cost = 0.0f64;
        let mut t1_cost = 0.0f64;
        for _ in 0..20 {
            let Some((t, j)) = q.next_shot(|j| if j < 100 { 3.0 } else { 1.0 }, |_| false) else {
                break;
            };
            if t == 0 {
                t0_cost += 3.0;
                assert!(j < 100);
            } else {
                t1_cost += 1.0;
            }
        }
        // Served cost (not shot count) balances under DRR.
        assert!(
            (t0_cost - t1_cost).abs() <= 3.0,
            "t0_cost={t0_cost} t1_cost={t1_cost}"
        );
    }
}
