//! perfbench's reference kernel: a fixed amount of memory-bound work that
//! `run.py` times, from spawn to exit, to scale invocation times to one
//! host speed.
//!
//! Every run does the same work: each of two threads fills a 128 MiB
//! buffer, then copies one 64 MiB half of it into a second buffer ROUNDS
//! times, alternating halves. It prints a checksum.
//!
//! The other tenants of a shared host slow this work and the simulator
//! alike, so the ratio of an invocation's time to this kernel's varies less
//! than either time does. Memory bandwidth is what they share: on a 2-vCPU
//! VM the copy time tracked host slowdowns of `evaluate fig11` one for one
//! (log-log slope 1.0), where a pointer chase through 16 MiB and hash-table
//! inserts tracked only 0.6 of them.

const THREADS: u64 = 2;
const WORDS: usize = 1 << 24;
const ROUNDS: usize = 8;

fn work(seed: u64) -> u64 {
    let source: Vec<u64> = (0..WORDS as u64)
        .map(|i| (i ^ seed).wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .collect();
    let mut dest = vec![0u64; WORDS / 2];
    let mut sum = 0u64;
    for round in 0..ROUNDS {
        let half = (round % 2) * (WORDS / 2);
        dest.copy_from_slice(&source[half..half + WORDS / 2]);
        sum = sum.wrapping_add(dest[round * 4099]);
    }
    sum
}

fn main() {
    let threads: Vec<_> = (0..THREADS)
        .map(|t| std::thread::spawn(move || work(0x5eed + t)))
        .collect();
    let checksum = threads
        .into_iter()
        .map(|t| t.join().expect("reference kernel thread panicked"))
        .fold(0u64, u64::wrapping_add);
    println!("{checksum}");
}
