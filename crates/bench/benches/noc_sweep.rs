//! NoC design-space sweep: trace replay under point-to-point vs multicast
//! interconnects at several PE counts (the Fig 11(b)/(c) kernel).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use genesys_core::{replay_trace, GenomeBuffer, NocKind, SramConfig};
use genesys_neat::{
    EvalContext, GenerationTrace, Genome, NeatConfig, Network, Population, Session,
};

fn traced_population() -> (GenerationTrace, Vec<usize>, Vec<usize>) {
    let config = NeatConfig::builder(8, 1).pop_size(150).build().unwrap();
    let mut session = Session::on(Population::new(config, 9), 9)
        .workload(|_: EvalContext, net: &Network| net.activate(&[0.2; 8])[0])
        .build();
    let parent_sizes: Vec<usize> = session.genomes().map(Genome::num_genes).collect();
    session.step();
    let child_sizes: Vec<usize> = session.genomes().map(Genome::num_genes).collect();
    let trace = session.backend().last_trace().unwrap().clone();
    (trace, parent_sizes, child_sizes)
}

fn bench_replay(c: &mut Criterion) {
    let (trace, parents, children) = traced_population();
    let mut group = c.benchmark_group("eve_trace_replay");
    for &pes in &[16usize, 64, 256] {
        for noc in [NocKind::PointToPoint, NocKind::MulticastTree] {
            group.bench_with_input(BenchmarkId::new(format!("{noc}"), pes), &pes, |b, &n| {
                b.iter(|| {
                    let mut buffer = GenomeBuffer::new(SramConfig::default());
                    replay_trace(&trace, &parents, &children, n, noc, &mut buffer)
                });
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_replay);
criterion_main!(benches);
