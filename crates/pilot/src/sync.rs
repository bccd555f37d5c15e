//! An mpsc channel built on `std::sync::{Mutex, Condvar}`.
//!
//! Replaces `crossbeam::channel` in the hermetic build: an unbounded
//! multi-producer single-consumer queue with a blocking receive and
//! disconnection detection on both ends. Its one caller is the sharded
//! backend's worker-thread shard drive.
//!
//! Semantics match `std::sync::mpsc` (and crossbeam's unbounded channel):
//!
//! * `send` never blocks; it fails only once the receiver is dropped.
//! * `recv` blocks until a message arrives or every sender is dropped; a
//!   disconnected channel still drains buffered messages before reporting
//!   [`RecvError`].

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex};

/// The receiver disconnected; the message is handed back.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct SendError<T>(pub T);

impl<T> std::fmt::Debug for SendError<T> {
    // No `T: Debug` bound: callers `.expect()` sends of non-Debug payloads
    // (e.g. boxed work closures).
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("SendError(..)")
    }
}

/// Every sender disconnected and the queue is drained.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecvError;

struct Shared<T> {
    queue: Mutex<ChannelState<T>>,
    ready: Condvar,
}

struct ChannelState<T> {
    buf: VecDeque<T>,
    senders: usize,
    receiver_alive: bool,
}

/// The sending half; clone freely across threads.
pub struct Sender<T> {
    shared: Arc<Shared<T>>,
}

/// The receiving half (single consumer).
pub struct Receiver<T> {
    shared: Arc<Shared<T>>,
}

/// An unbounded channel.
pub fn channel<T>() -> (Sender<T>, Receiver<T>) {
    let shared = Arc::new(Shared {
        queue: Mutex::new(ChannelState {
            buf: VecDeque::new(),
            senders: 1,
            receiver_alive: true,
        }),
        ready: Condvar::new(),
    });
    (
        Sender {
            shared: shared.clone(),
        },
        Receiver { shared },
    )
}

impl<T> Sender<T> {
    /// Enqueue a message; fails (returning it) if the receiver is gone.
    pub fn send(&self, value: T) -> Result<(), SendError<T>> {
        let mut state = self.shared.queue.lock().expect("channel lock");
        if !state.receiver_alive {
            return Err(SendError(value));
        }
        state.buf.push_back(value);
        drop(state);
        self.shared.ready.notify_one();
        Ok(())
    }
}

impl<T> Clone for Sender<T> {
    fn clone(&self) -> Self {
        self.shared.queue.lock().expect("channel lock").senders += 1;
        Sender {
            shared: self.shared.clone(),
        }
    }
}

impl<T> Drop for Sender<T> {
    fn drop(&mut self) {
        let remaining = {
            let mut state = self.shared.queue.lock().expect("channel lock");
            state.senders -= 1;
            state.senders
        };
        if remaining == 0 {
            // Wake a receiver blocked in recv() so it can
            // observe the disconnect.
            self.shared.ready.notify_all();
        }
    }
}

impl<T> Receiver<T> {
    /// Block until a message arrives or all senders disconnect.
    pub fn recv(&self) -> Result<T, RecvError> {
        let mut state = self.shared.queue.lock().expect("channel lock");
        loop {
            if let Some(v) = state.buf.pop_front() {
                return Ok(v);
            }
            if state.senders == 0 {
                return Err(RecvError);
            }
            state = self.shared.ready.wait(state).expect("channel lock");
        }
    }
}

impl<T> Drop for Receiver<T> {
    fn drop(&mut self) {
        self.shared.queue.lock().expect("channel lock").receiver_alive = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;
    use std::time::Duration;

    #[test]
    fn messages_arrive_in_order() {
        let (tx, rx) = channel();
        for i in 0..10 {
            tx.send(i).unwrap();
        }
        let got: Vec<i32> = (0..10).map(|_| rx.recv().unwrap()).collect();
        assert_eq!(got, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn recv_blocks_until_send() {
        let (tx, rx) = channel();
        let h = thread::spawn(move || rx.recv());
        thread::sleep(Duration::from_millis(30));
        tx.send(42).unwrap();
        assert_eq!(h.join().unwrap(), Ok(42));
    }

    #[test]
    fn recv_unblocks_on_disconnect() {
        let (tx, rx) = channel::<u8>();
        let h = thread::spawn(move || rx.recv());
        thread::sleep(Duration::from_millis(30));
        drop(tx);
        assert_eq!(h.join().unwrap(), Err(RecvError));
    }

    #[test]
    fn buffered_messages_survive_disconnect() {
        let (tx, rx) = channel();
        tx.send(1).unwrap();
        tx.send(2).unwrap();
        drop(tx);
        assert_eq!(rx.recv(), Ok(1));
        assert_eq!(rx.recv(), Ok(2));
        assert_eq!(rx.recv(), Err(RecvError));
    }

    #[test]
    fn send_fails_after_receiver_drops() {
        let (tx, rx) = channel();
        drop(rx);
        assert_eq!(tx.send(9), Err(SendError(9)));
    }

    #[test]
    fn many_producers_one_consumer() {
        let (tx, rx) = channel();
        let handles: Vec<_> = (0..8)
            .map(|t| {
                let tx = tx.clone();
                thread::spawn(move || {
                    for i in 0..100u32 {
                        tx.send(t * 100 + i).unwrap();
                    }
                })
            })
            .collect();
        drop(tx);
        let mut got = Vec::new();
        while let Ok(v) = rx.recv() {
            got.push(v);
        }
        for h in handles {
            h.join().unwrap();
        }
        got.sort_unstable();
        assert_eq!(got, (0..800).collect::<Vec<_>>());
    }
}
