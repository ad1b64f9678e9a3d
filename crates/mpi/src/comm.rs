//! Rank runtime: threads + channels with an MPI-flavoured nonblocking API.
//!
//! Every payload is a `Vec<f32>` — ghost planes, gathered slabs and
//! migrated images, the only data Algorithm 1's ranks exchange.

use crossbeam::channel::{unbounded, Receiver, Sender};

/// A message in flight.
#[derive(Debug)]
struct Msg {
    src: usize,
    tag: u64,
    payload: Vec<f32>,
}

/// A nonblocking communication request handle.
///
/// Sends complete eagerly (buffered, like small-message MPI); receives
/// complete when a matching message arrives.
#[derive(Debug)]
pub enum Request {
    /// A posted send (always complete — eager buffering).
    Send,
    /// A posted receive for (source, tag).
    Recv {
        /// Source rank.
        src: usize,
        /// Message tag.
        tag: u64,
        /// Filled once matched.
        data: Option<Vec<f32>>,
    },
}

impl Request {
    /// True when the request has completed.
    pub fn is_complete(&self) -> bool {
        match self {
            Request::Send => true,
            Request::Recv { data, .. } => data.is_some(),
        }
    }

    /// Take the received payload (panics on sends or incomplete receives).
    pub fn take(self) -> Vec<f32> {
        match self {
            Request::Recv { data: Some(b), .. } => b,
            _ => panic!("take() on a send or incomplete receive"),
        }
    }
}

/// Per-rank communication context handed to the rank closure.
pub struct RankCtx {
    rank: usize,
    size: usize,
    inbox: Receiver<Msg>,
    peers: Vec<Sender<Msg>>,
    pending: Vec<Msg>,
}

impl RankCtx {
    /// This rank's id.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Communicator size.
    pub fn size(&self) -> usize {
        self.size
    }

    /// Post a nonblocking send (eager: the payload is buffered immediately).
    pub fn isend(&self, dest: usize, tag: u64, payload: Vec<f32>) -> Request {
        assert!(dest < self.size, "destination rank out of range");
        self.peers[dest]
            .send(Msg {
                src: self.rank,
                tag,
                payload,
            })
            .expect("peer hung up");
        Request::Send
    }

    /// Post a nonblocking receive for a message from `src` with `tag`.
    pub fn irecv(&mut self, src: usize, tag: u64) -> Request {
        assert!(src < self.size, "source rank out of range");
        // Check messages that already arrived out of order.
        let data = self
            .pending
            .iter()
            .position(|m| m.src == src && m.tag == tag)
            .map(|pos| self.pending.remove(pos).payload);
        Request::Recv { src, tag, data }
    }

    /// Block until an arriving message matches an incomplete receive in
    /// `reqs`; returns its index. Unmatched arrivals wait in `pending` for
    /// a later [`Self::irecv`].
    fn complete_next(&mut self, reqs: &mut [Request]) -> usize {
        loop {
            let msg = self.inbox.recv().expect("communicator shut down");
            for (i, r) in reqs.iter_mut().enumerate() {
                if let Request::Recv { src, tag, data } = r {
                    if *src == msg.src && *tag == msg.tag && data.is_none() {
                        *data = Some(msg.payload);
                        return i;
                    }
                }
            }
            self.pending.push(msg);
        }
    }

    /// Block until one incomplete request finishes; returns its index.
    /// Mirrors `MPI_WAITANY` over the request array of Algorithm 1.
    pub fn wait_any(&mut self, reqs: &mut [Request]) -> usize {
        match reqs.iter().position(Request::is_complete) {
            Some(i) => i,
            None => self.complete_next(reqs),
        }
    }

    /// Wait for every request in the slice.
    pub fn wait_all(&mut self, reqs: &mut [Request]) {
        while reqs.iter().any(|r| !r.is_complete()) {
            self.complete_next(reqs);
        }
    }

    /// Blocking receive convenience.
    pub fn recv(&mut self, src: usize, tag: u64) -> Vec<f32> {
        let mut reqs = [self.irecv(src, tag)];
        self.wait_all(&mut reqs);
        let [r] = reqs;
        r.take()
    }
}

/// Factory for running SPMD closures across ranks.
pub struct Communicator;

impl Communicator {
    /// Run `f` on `size` ranks (threads); returns each rank's result in
    /// rank order. Panics in any rank propagate.
    pub fn run<T: Send>(size: usize, f: impl Fn(&mut RankCtx) -> T + Sync) -> Vec<T> {
        assert!(size > 0, "communicator needs at least one rank");
        let (peers, inboxes): (Vec<_>, Vec<_>) = (0..size).map(|_| unbounded::<Msg>()).unzip();
        let f = &f;
        std::thread::scope(|s| {
            let handles: Vec<_> = inboxes
                .into_iter()
                .enumerate()
                .map(|(rank, inbox)| {
                    let peers = peers.clone();
                    s.spawn(move || {
                        f(&mut RankCtx {
                            rank,
                            size,
                            inbox,
                            peers,
                            pending: Vec::new(),
                        })
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| match h.join() {
                    Ok(v) => v,
                    // Re-raise with the original payload so callers (and
                    // `#[should_panic]` tests) see the rank's own message.
                    Err(e) => std::panic::resume_unwind(e),
                })
                .collect()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_pass() {
        let results = Communicator::run(4, |c| {
            let next = (c.rank() + 1) % c.size();
            let prev = (c.rank() + c.size() - 1) % c.size();
            c.isend(next, 7, vec![c.rank() as f32, 0.5]);
            c.recv(prev, 7)
        });
        let want: Vec<Vec<f32>> = [3.0, 0.0, 1.0, 2.0].map(|r| vec![r, 0.5]).into();
        assert_eq!(results, want);
    }

    #[test]
    fn requests_match_out_of_order() {
        let results = Communicator::run(2, |c| {
            if c.rank() == 0 {
                // Send tag 2 first, then tag 1 — receiver posts 1 before 2.
                c.isend(1, 2, vec![2.0, 2.0]);
                c.isend(1, 1, vec![1.0]);
                Vec::new()
            } else {
                let mut reqs = vec![c.irecv(0, 1), c.irecv(0, 2)];
                let first = c.wait_any(&mut reqs);
                assert!(reqs[first].is_complete());
                c.wait_all(&mut reqs);
                assert!(reqs.iter().all(Request::is_complete));
                let mut it = reqs.into_iter();
                assert_eq!(it.next().unwrap().take(), vec![1.0]);
                it.next().unwrap().take()
            }
        });
        assert_eq!(results[1], vec![2.0, 2.0]);
    }

    #[test]
    fn single_rank_works() {
        let r = Communicator::run(1, |c| {
            assert_eq!(c.size(), 1);
            c.isend(0, 3, vec![42.0]);
            c.recv(0, 3)
        });
        assert_eq!(r, vec![vec![42.0]]);
    }

    #[test]
    #[should_panic(expected = "destination rank out of range")]
    fn send_out_of_range_panics() {
        Communicator::run(2, |c| {
            if c.rank() == 0 {
                c.isend(5, 0, Vec::new());
            }
        });
    }

    #[test]
    fn wait_all_completes_everything() {
        let got = Communicator::run(3, |c| {
            let mut reqs = Vec::new();
            for dest in 0..c.size() {
                if dest != c.rank() {
                    reqs.push(c.isend(dest, 9, vec![c.rank() as f32]));
                }
            }
            for src in 0..c.size() {
                if src != c.rank() {
                    reqs.push(c.irecv(src, 9));
                }
            }
            c.wait_all(&mut reqs);
            assert!(reqs.iter().all(Request::is_complete));
            // The receives follow the sends, in source-rank order.
            reqs.into_iter()
                .skip(c.size() - 1)
                .flat_map(Request::take)
                .collect::<Vec<f32>>()
        });
        assert_eq!(got, vec![vec![1.0, 2.0], vec![0.0, 2.0], vec![0.0, 1.0]]);
    }
}
