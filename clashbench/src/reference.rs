//! A fixed reference computation, timed between repetitions to measure
//! how fast the host runs at that moment.
//!
//! The benchmark's hosts are shared: a neighbour's load slows every
//! process on the machine by up to ~40% for minutes at a time, which is
//! wider than any useful regression bound. The reference is std-only
//! code that never changes with the program. It does the kind of work
//! the protocol does, at a similar working set (~10 MiB): it fills an
//! ordered map and a hash map with random keys, then looks keys up in
//! both. A slow host slows it about as much as the workloads, so the
//! ratio of a repetition's time to the reference's time cancels most of
//! the host's speed and keeps the program's. (Smaller references, such
//! as 10 000 keys or random loads over an 8 MiB table, tracked the
//! workloads less closely.)

use std::collections::{BTreeMap, HashMap};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Keys inserted into, and looked up in, each map per pass.
const KEYS: u64 = 200_000;

fn xorshift(s: &mut u64) -> u64 {
    *s ^= *s << 13;
    *s ^= *s >> 7;
    *s ^= *s << 17;
    *s
}

/// One pass: the same work on every call.
fn pass() -> Duration {
    let started = Instant::now();
    let mut s = 0x2545_F491_4F6C_DD1D;
    let mut ordered = BTreeMap::new();
    let mut hashed: HashMap<u64, u64> = HashMap::new();
    for i in 0..KEYS {
        ordered.insert(xorshift(&mut s) % (KEYS * 4), i);
        *hashed.entry(xorshift(&mut s) % (KEYS * 2)).or_insert(0) += i;
    }
    let mut acc = 0u64;
    for _ in 0..KEYS {
        if let Some((_, v)) = ordered.range(xorshift(&mut s) % (KEYS * 4)..).next() {
            acc = acc.wrapping_add(*v);
        }
        let hit = hashed.get(&(xorshift(&mut s) % (KEYS * 2)));
        acc = acc.wrapping_add(hit.copied().unwrap_or(0));
    }
    black_box(acc);
    started.elapsed()
}

/// Runs `passes` passes of the reference and returns the median pass
/// time.
pub fn time(passes: usize) -> Duration {
    let mut times: Vec<Duration> = (0..passes).map(|_| pass()).collect();
    times.sort_unstable();
    times[times.len() / 2]
}
