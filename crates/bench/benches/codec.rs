//! Microbenchmark: wire-format encode/decode of the distributed-PLOS
//! messages (every ADMM round moves two of these per user).

// Allowed: bench setup code; the bytes being decoded were just produced by
// the encoder, so the expect cannot fail.
#![allow(clippy::expect_used)]

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use plos_linalg::Vector;
use plos_net::Message;
use std::hint::black_box;

fn bench_codec(c: &mut Criterion) {
    let mut group = c.benchmark_group("message_codec");
    // 121 = the body-sensor dimension + bias; 562 = HAR + bias.
    for &d in &[3usize, 121, 562] {
        let msg = Message::Assign {
            round: 12,
            phase: plos_net::shard::PHASE_ADMM,
            cccp_round: 1,
            t_count: 30,
            w0: Vector::filled(d, 0.5),
            u_t: Vector::filled(d, -0.25),
        };
        group.bench_with_input(BenchmarkId::new("encode", d), &d, |b, _| {
            b.iter(|| black_box(msg.encode()));
        });
        let bytes = msg.encode();
        group.bench_with_input(BenchmarkId::new("decode", d), &d, |b, _| {
            b.iter(|| black_box(Message::decode(bytes.clone()).expect("valid bytes")));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_codec);
criterion_main!(benches);
