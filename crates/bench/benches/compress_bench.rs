//! Codec micro-benchmarks: compression / decompression throughput per 4 KiB
//! page, per algorithm and content class, and on a workload's own pages.
//! Validates the latency orderings the tier model assumes
//! (lz4 < lzo < zstd < deflate).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;
use std::time::Duration;
use ts_compress::Algorithm;
use ts_workloads::{PageClass, Scale, WorkloadId};

fn page(class: PageClass) -> Vec<u8> {
    let mut buf = vec![0u8; 4096];
    class.fill(42, 7, &mut buf);
    buf
}

/// Short measurement windows: these benches validate orderings, not
/// nanosecond-precision regressions, and the full suite must stay fast.
fn quick_config() -> Criterion {
    Criterion::default()
        .measurement_time(Duration::from_secs(2))
        .warm_up_time(Duration::from_millis(400))
        .sample_size(10)
}

fn bench_compress(c: &mut Criterion) {
    let mut g = c.benchmark_group("compress_4k");
    g.sample_size(20);
    g.throughput(Throughput::Bytes(4096));
    for algo in Algorithm::ALL {
        let codec = algo.codec();
        let data = page(PageClass::Text);
        g.bench_with_input(
            BenchmarkId::from_parameter(algo.name()),
            &data,
            |b, data| {
                b.iter(|| {
                    let mut out = Vec::with_capacity(4096);
                    let _ = codec.compress(black_box(data), &mut out);
                    black_box(out)
                })
            },
        );
    }
    g.finish();
}

fn bench_decompress(c: &mut Criterion) {
    let mut g = c.benchmark_group("decompress_4k");
    g.sample_size(20);
    g.throughput(Throughput::Bytes(4096));
    for algo in Algorithm::ALL {
        let codec = algo.codec();
        let data = page(PageClass::Text);
        let mut compressed = Vec::new();
        if codec.compress(&data, &mut compressed).is_err() {
            continue;
        }
        g.bench_with_input(
            BenchmarkId::from_parameter(algo.name()),
            &compressed,
            |b, comp| {
                b.iter(|| {
                    let mut out = Vec::with_capacity(4096);
                    codec
                        .decompress(black_box(comp), &mut out)
                        .expect("valid stream");
                    black_box(out)
                })
            },
        );
    }
    g.finish();
}

fn bench_by_content(c: &mut Criterion) {
    let mut g = c.benchmark_group("zstd_by_content");
    g.sample_size(20);
    let codec = Algorithm::Zstd.codec();
    for class in [
        PageClass::Zero,
        PageClass::HighlyCompressible,
        PageClass::Text,
        PageClass::Binary,
    ] {
        let data = page(class);
        g.bench_with_input(
            BenchmarkId::from_parameter(format!("{class:?}")),
            &data,
            |b, data| {
                b.iter(|| {
                    let mut out = Vec::with_capacity(4096);
                    let _ = codec.compress(black_box(data), &mut out);
                    black_box(out)
                })
            },
        );
    }
    g.finish();
}

/// Decode cost per content class for the two codecs that share the
/// canonical-Huffman decoder: the CT-2 fault-in path of `kv-am-real`.
/// Classes whose page is rejected as incompressible have no stream.
fn bench_decompress_by_content(c: &mut Criterion) {
    let mut g = c.benchmark_group("decompress_by_content");
    g.sample_size(20);
    g.throughput(Throughput::Bytes(4096));
    for algo in [Algorithm::Zstd, Algorithm::Deflate] {
        let codec = algo.codec();
        for class in PageClass::ALL {
            let mut stream = Vec::new();
            if codec.compress(&page(class), &mut stream).is_err() {
                continue;
            }
            g.bench_with_input(
                BenchmarkId::new(algo.name(), format!("{class:?}")),
                &stream,
                |b, stream| {
                    b.iter(|| {
                        let mut out = Vec::with_capacity(4096);
                        codec
                            .decompress(black_box(stream), &mut out)
                            .expect("valid stream");
                        black_box(out)
                    })
                },
            );
        }
    }
    g.finish();
}

/// Harness time, not the system under study: synthesizing one page of
/// each content class, which the simulator does before every real-fidelity
/// store because page content is regenerated rather than kept.
fn bench_fill_page_by_class(c: &mut Criterion) {
    let mut g = c.benchmark_group("fill_page_by_class");
    g.sample_size(20);
    g.throughput(Throughput::Bytes(4096));
    for class in PageClass::ALL {
        let mut buf = vec![0u8; 4096];
        let mut index = 0u64;
        g.bench_function(BenchmarkId::from_parameter(format!("{class:?}")), |b| {
            b.iter(|| {
                index += 1;
                class.fill(42, black_box(index), &mut buf);
                black_box(&buf);
            })
        });
    }
    g.finish();
}

/// 16 memcached-ycsb pages spread over the RSS: the CT-1/CT-2 store and
/// fault-in path of the `kv-am-real` daemon benchmark, one page at a time.
fn bench_workload_pages(c: &mut Criterion) {
    let w = WorkloadId::MemcachedYcsb.build(Scale::BENCH, 91);
    let total = w.total_pages();
    let pages: Vec<Vec<u8>> = (0..16u64)
        .map(|i| {
            let mut buf = vec![0u8; 4096];
            w.fill_page(i * total / 16, &mut buf);
            buf
        })
        .collect();
    let mut g = c.benchmark_group("memcached_ycsb_16_pages");
    g.sample_size(20);
    g.throughput(Throughput::Bytes(16 * 4096));
    for algo in [
        Algorithm::Lz4,
        Algorithm::Lzo,
        Algorithm::Zstd,
        Algorithm::Deflate,
    ] {
        let codec = algo.codec();
        g.bench_function(BenchmarkId::new("compress", algo.name()), |b| {
            b.iter(|| {
                for page in &pages {
                    let mut out = Vec::with_capacity(4096);
                    let _ = codec.compress(black_box(page), &mut out);
                    black_box(out);
                }
            })
        });
        let streams: Vec<Vec<u8>> = pages
            .iter()
            .filter_map(|page| {
                let mut out = Vec::new();
                codec.compress(page, &mut out).ok().map(|_| out)
            })
            .collect();
        g.bench_function(BenchmarkId::new("decompress", algo.name()), |b| {
            b.iter(|| {
                for stream in &streams {
                    let mut out = Vec::with_capacity(4096);
                    codec
                        .decompress(black_box(stream), &mut out)
                        .expect("valid stream");
                    black_box(out);
                }
            })
        });
    }
    g.finish();
}

criterion_group! {
    name = benches;
    config = quick_config();
    targets = bench_compress, bench_decompress, bench_by_content, bench_decompress_by_content,
        bench_fill_page_by_class, bench_workload_pages
}
criterion_main!(benches);
