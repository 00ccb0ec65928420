//! Mux dispatch allocation contract: a lane-multiplexed execution costs
//! **zero** heap allocations per node-round and at most one per message
//! (the `Arc` behind each [`ncc_model::DynPayload`]). Each lane's typed
//! inbox and outbox live in its per-node slot and keep their capacity, so
//! once they have grown, stepping lanes and interleaving their sends only
//! moves values through retained storage.
//!
//! The harness is a counting `#[global_allocator]`; the file holds a
//! single test so no concurrent test can pollute the counter. It runs at
//! `threads = 1`, because the parallel step/route paths allocate scoped
//! thread handles each round by design.
//!
//! The contract is checked as a difference: the same two-lane execution
//! at `R = 50` and at `R = 1000` rounds. Set-up, warm-up and result costs
//! are the same in both and cancel, so what is left is the per-round
//! cost of the extra rounds, which must not exceed their extra messages.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use ncc_model::{take_lane_states, Ctx, Engine, Envelope, MuxBuilder, NetConfig, NodeProgram};

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, l: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(l) }
    }
    unsafe fn alloc_zeroed(&self, l: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(l) }
    }
    unsafe fn realloc(&self, p: *mut u8, l: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(p, l, new_size) }
    }
    unsafe fn dealloc(&self, p: *mut u8, l: Layout) {
        unsafe { System.dealloc(p, l) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Stays awake for `rounds` rounds without sending: pure per-node-round
/// dispatch cost.
struct Idle {
    rounds: u64,
}

impl NodeProgram for Idle {
    type State = u64;
    type Payload = u64;

    fn init(&self, _st: &mut u64, ctx: &mut Ctx<'_, u64>) {
        ctx.stay_awake();
    }

    fn round(&self, st: &mut u64, _inbox: &[Envelope<u64>], ctx: &mut Ctx<'_, u64>) {
        *st += 1;
        if ctx.round < self.rounds {
            ctx.stay_awake();
        }
    }
}

/// Every node forwards one message to `(id + 1) mod n` for `rounds`
/// rounds: per-message cost.
struct Relay {
    rounds: u64,
}

impl NodeProgram for Relay {
    type State = u64;
    type Payload = u64;

    fn init(&self, _st: &mut u64, ctx: &mut Ctx<'_, u64>) {
        ctx.send((ctx.id + 1) % ctx.n as u32, 1);
    }

    fn round(&self, st: &mut u64, inbox: &[Envelope<u64>], ctx: &mut Ctx<'_, u64>) {
        *st += inbox.iter().map(|e| e.payload).sum::<u64>();
        if ctx.round < self.rounds {
            ctx.send((ctx.id + 1) % ctx.n as u32, ctx.round);
        }
    }
}

/// Allocations and messages sent by one two-lane execution of `rounds`
/// rounds, counted from just before the build to just after the lane
/// states are taken back out.
fn measure(n: usize, rounds: u64) -> (u64, u64) {
    let before = ALLOCS.load(Ordering::Relaxed);
    let mut eng = Engine::new(NetConfig::new(n, 3).with_threads(1));
    let mut b = MuxBuilder::new(n);
    let idle = b.lane_seeded(Idle { rounds }, vec![0u64; n], 1);
    let relay = b.lane_seeded(Relay { rounds }, vec![0u64; n], 2);
    let (mux, mut states) = b.build();
    let stats = eng.execute(&mux, &mut states).expect("mux runs");
    let idle_states: Vec<u64> = take_lane_states(&mut states, idle);
    let relay_states: Vec<u64> = take_lane_states(&mut states, relay);
    let allocs = ALLOCS.load(Ordering::Relaxed) - before;
    assert_eq!(stats.rounds, rounds + 1);
    assert!(idle_states.iter().all(|&r| r == rounds));
    assert!(relay_states.iter().all(|&s| s > 0));
    (allocs, stats.sent)
}

#[test]
fn mux_allocates_nothing_per_node_round_and_at_most_one_per_message() {
    let n = 64;
    let (short_allocs, short_msgs) = measure(n, 50);
    let (long_allocs, long_msgs) = measure(n, 1000);
    let extra_msgs = long_msgs - short_msgs;
    assert_eq!(extra_msgs, n as u64 * 950);
    let extra_allocs = long_allocs.saturating_sub(short_allocs);
    assert!(
        extra_allocs <= extra_msgs,
        "{extra_allocs} extra allocations for {extra_msgs} extra messages \
         over {} extra node-rounds",
        2 * n as u64 * 950
    );
}
