//! Exact outputs of the per-schedule checks, pinned as golden values:
//! the `Verifier::verify` report, the static memory ledger
//! (`ledger_of_schedule`), the instrumented counter
//! (`instrument_timeline`), the full OM analysis (`mem::check_schedule`)
//! and the list simulator's timeline (`simulate`), over every zoo
//! strategy × {single, datapar, pipeline×4} × {3, 8, 26} layers and the
//! op-level GPipe/OOO-Pipe2 renderings at 128 layers × 8 devices, plus
//! a 9-layer cost table with zero-duration ops. Seeded
//! mutations of each schedule (swaps, cross-lane moves, dropped syncs,
//! duplicated and unknown ops) pin the findings OV001–OV401 and the
//! simulator's error text on the deadlocking ones. Each value is an
//! FNV-64 digest of the rendered output, so a rewrite of any of these
//! checks must reproduce every byte.

use ooo_backprop::cluster::strategy::{zoo, Generated, Shape};
use ooo_backprop::core::cost::{LayerCost, TableCost};
use ooo_backprop::core::hash::fnv64;
use ooo_backprop::core::list_scheduling::simulate;
use ooo_backprop::core::op::{LayerId, Op};
use ooo_backprop::core::pipeline::{op_level_schedule, Strategy};
use ooo_backprop::core::schedule::Schedule;
use ooo_backprop::core::TrainGraph;
use ooo_backprop::verify::mem::{self, MemCheckOptions};
use ooo_backprop::verify::{Verifier, VerifyConfig};
use std::collections::BTreeSet;
use std::fmt::Write as _;

/// A non-uniform cost table, so lanes overlap unevenly and the ledger's
/// buffers differ in size.
fn cost(layers: usize) -> TableCost {
    let mut t = TableCost::new(
        (1..=layers)
            .map(|i| LayerCost {
                forward: 3 + (i % 4) as u64,
                output_grad: 5 + ((i * 7) % 5) as u64,
                weight_grad: 4 + ((i * 3) % 6) as u64,
                update: 1 + (i % 2) as u64,
                sync_weight: 6 + ((i * 5) % 7) as u64,
                sync_output: 2 + (i % 3) as u64,
                activation_bytes: 10 + ((i * 11) % 9) as u64,
                out_grad_bytes: 5 + (i % 6) as u64,
                weight_bytes: 7 + ((i * 13) % 10) as u64,
            })
            .collect(),
    );
    t.loss = 2;
    t
}

/// The same table with every third layer's ops and the loss free of
/// cost: zero-width intervals exercise the ledger's and the counter's
/// same-timestamp conventions.
fn cost_with_free_ops(layers: usize) -> TableCost {
    let mut t = cost(layers);
    for i in (3..=layers).step_by(3) {
        let c = t.layer_mut(LayerId(i));
        (c.forward, c.output_grad, c.weight_grad, c.update) = (0, 0, 0, 0);
        (c.sync_weight, c.sync_output) = (0, 0);
    }
    t.loss = 0;
    t
}

fn hex(s: &str) -> String {
    format!("{:016x}", fnv64(s.as_bytes()))
}

/// Every check's output on one schedule, as one line: the report's rule
/// codes and digest, the ledger's digest or error, the simulated
/// timeline and counter digests or the simulator's error text, and (for
/// schedules of at most 200 ops) the OM analysis digest.
fn checks(graph: &TrainGraph, schedule: &Schedule, complete: bool, cost: &TableCost) -> String {
    let mut out = String::new();
    let report = Verifier::new(graph)
        .with_config(VerifyConfig {
            require_complete: complete,
            memory_budget: None,
            check_legality: true,
        })
        .with_cost(cost)
        .verify(schedule);
    let _ = write!(
        out,
        "codes={:?} verify={}",
        report.rule_codes(),
        hex(&report.to_string())
    );
    match mem::ledger_of_schedule(graph, schedule, cost) {
        Ok(l) => {
            let text = format!(
                "{}|{}|{}|{:?}|{}|{}",
                l.peak, l.peak_at, l.peak_until, l.resident_at_peak, l.initial, l.final_usage
            );
            let _ = write!(out, " peak={} ledger={}", l.peak, hex(&text));
        }
        Err(e) => {
            let _ = write!(out, " ledger_err={}", hex(&e.to_string()));
        }
    }
    match simulate(graph, schedule, cost) {
        Ok(tl) => {
            let mut text = String::new();
            for e in &tl.entries {
                let _ = write!(text, "{}@{}:{}-{};", e.op, e.resource.0, e.start, e.end);
            }
            let c = mem::instrument_timeline(graph, cost, &tl);
            let counter = format!("{}|{}|{}", c.initial, c.peak, c.final_usage);
            let _ = write!(
                out,
                " makespan={} sim={} counter={}",
                tl.makespan(),
                hex(&text),
                hex(&counter)
            );
        }
        Err(e) => {
            let _ = write!(out, " sim_err=\"{e}\"");
        }
    }
    if schedule.num_ops() <= 200 {
        let opts = MemCheckOptions {
            baseline: true,
            ..MemCheckOptions::default()
        };
        match mem::check_schedule(graph, schedule, cost, &opts) {
            Ok(a) => {
                let text: Vec<String> = a.diagnostics.iter().map(|d| d.to_string()).collect();
                let _ = write!(out, " om={}", hex(&text.join("\n")));
            }
            Err(e) => {
                let _ = write!(out, " om_err={}", hex(&e.to_string()));
            }
        }
    }
    out
}

/// A small deterministic generator (xorshift64*), so the mutations do
/// not depend on any library's stream.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// One seeded mutation of `s`: a same-lane swap, a cross-lane move, a
/// dropped sync op, a duplicated op or an unknown op.
fn mutate(s: &Schedule, rng: &mut Rng, kind: usize) -> Schedule {
    let mut m = s.clone();
    let lanes: Vec<usize> = (0..m.lanes.len())
        .filter(|&l| !m.lanes[l].ops.is_empty())
        .collect();
    let li = lanes[rng.below(lanes.len())];
    let n = m.lanes[li].ops.len();
    match kind {
        0 => {
            let (a, b) = (rng.below(n), rng.below(n));
            m.lanes[li].ops.swap(a, b);
        }
        1 => {
            let op = m.lanes[li].ops.remove(rng.below(n));
            let to = rng.below(m.lanes.len());
            let at = rng.below(m.lanes[to].ops.len() + 1);
            m.lanes[to].ops.insert(at, op);
        }
        2 => {
            let syncs: Vec<(usize, usize)> = m
                .lanes
                .iter()
                .enumerate()
                .flat_map(|(l, lane)| {
                    lane.ops
                        .iter()
                        .enumerate()
                        .filter(|(_, op)| op.is_sync())
                        .map(move |(p, _)| (l, p))
                })
                .collect();
            if syncs.is_empty() {
                m.lanes[li].ops.remove(rng.below(n));
            } else {
                let (l, p) = syncs[rng.below(syncs.len())];
                m.lanes[l].ops.remove(p);
            }
        }
        3 => {
            let op = m.lanes[li].ops[rng.below(n)];
            let to = rng.below(m.lanes.len());
            let at = rng.below(m.lanes[to].ops.len() + 1);
            m.lanes[to].ops.insert(at, op);
        }
        _ => {
            let at = rng.below(n + 1);
            m.lanes[li].ops.insert(at, Op::Forward(LayerId(999)));
        }
    }
    m
}

/// The pinned line of one cell, plus one line per mutant.
fn cell_lines(
    name: &str,
    g: &Generated,
    cost: &TableCost,
    seed: u64,
    mutants: usize,
) -> Vec<String> {
    let mut lines = vec![format!(
        "{name}: {}",
        checks(&g.graph, &g.schedule, g.complete, cost)
    )];
    let mut rng = Rng(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1);
    for k in 0..mutants {
        // Swaps and cross-lane moves draw the interesting findings, so
        // they get most of the draws.
        let kind = [0, 1, 0, 1, 2, 0, 1, 3, 0, 1, 4][k % 11];
        let m = mutate(&g.schedule, &mut rng, kind);
        lines.push(format!(
            "{name} mut{k}: {}",
            checks(&g.graph, &m, g.complete, cost)
        ));
    }
    lines
}

fn shapes(layers: usize) -> [Shape; 3] {
    [
        Shape::SingleGpu { layers },
        Shape::DataParallel { layers },
        Shape::Pipeline { layers, devices: 4 },
    ]
}

fn zoo_lines(cost: &TableCost, mutants: usize) -> Vec<String> {
    let layers = cost.layers();
    let mut got = Vec::new();
    let mut seed = layers as u64;
    for s in zoo() {
        for shape in shapes(layers) {
            seed += 1;
            if !s.applicable(shape) {
                continue;
            }
            let name = format!("{}/{}/{layers}", s.name(), shape.kind());
            match s.generate(shape, cost) {
                Ok(g) => got.extend(cell_lines(&name, &g, cost, seed, mutants)),
                Err(e) => got.push(format!("{name}: generate_err=\"{e}\"")),
            }
        }
    }
    got
}

/// Compares line by line so a failure names the first diverging check.
fn assert_lines(got: &[String], want: &str) {
    let want: Vec<&str> = want
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty())
        .collect();
    for (g, w) in got.iter().zip(&want) {
        assert_eq!(g, w, "got:\n{}", got.join("\n"));
    }
    assert_eq!(
        got.len(),
        want.len(),
        "line count differs; got:\n{}",
        got.join("\n")
    );
}

/// The rule codes the mutants of `lines` drew, as a set.
fn drawn(lines: &[String]) -> BTreeSet<String> {
    lines
        .iter()
        .filter_map(|l| {
            let start = l.find("codes=[")? + 7;
            let end = start + l[start..].find(']')?;
            Some(l[start..end].to_string())
        })
        .flat_map(|c| {
            c.split(", ")
                .map(|s| s.trim_matches('"').to_string())
                .filter(|s| !s.is_empty())
                .collect::<Vec<_>>()
        })
        .collect()
}

const ZOO3: &str = r#"
conventional/single/3: codes=[] verify=99d0d07868912123 peak=73 ledger=b5774ef1d17e50b5 makespan=55 sim=1e6bfc8b3b44f5d5 counter=12321e083d8248c3 om=cbf29ce484222325
conventional/single/3 mut0: codes=[] verify=99d0d07868912123 peak=73 ledger=b5774ef1d17e50b5 makespan=55 sim=1e6bfc8b3b44f5d5 counter=12321e083d8248c3 om=cbf29ce484222325
conventional/single/3 mut1: codes=["OV101", "OV401"] verify=3e75f2f5ca011d45 ledger_err=e4e68493ba384166 sim_err="operation dW1 scheduled before its dependency dO2" om=630b043dd88a5424
conventional/single/3 mut2: codes=["OV101", "OV401"] verify=e67e02e13605ee28 ledger_err=3f20bc6a0dfa05da sim_err="operation F2 scheduled before its dependency U2" om=cbf29ce484222325
conventional/single/3 mut3: codes=["OV101"] verify=b75df22018fe9197 ledger_err=e055ad64db2074a9 sim_err="operation U3 scheduled before its dependency dW3" om=673796295700e7a0
conventional/single/3 mut4: codes=["OV003"] verify=d43e3a462a6a736c peak=76 ledger=2d478e8f80d0524e makespan=49 sim=e65bcb90b5a58b6a counter=ca0c98bb355ed13f om=fc6c034e02dbe441
conventional/datapar/3: codes=[] verify=99d0d07868912123 peak=73 ledger=b5774ef1d17e50b5 makespan=82 sim=69551aa56593066a counter=12321e083d8248c3 om=cbf29ce484222325
conventional/datapar/3 mut0: codes=["OV102"] verify=4d90730a1151ab27 ledger_err=22464611cf1b110a sim_err="operation U3 scheduled before its dependency S[dW3]" om=f709bfd0b0b574e7
conventional/datapar/3 mut1: codes=["OV102"] verify=2004cc06812ec227 ledger_err=abf097fcb9c0689a sim_err="operation U2 scheduled before its dependency S[dW2]" om=70c3653d7caca895
conventional/datapar/3 mut2: codes=[] verify=99d0d07868912123 peak=73 ledger=b5774ef1d17e50b5 makespan=82 sim=69551aa56593066a counter=12321e083d8248c3 om=cbf29ce484222325
conventional/datapar/3 mut3: codes=[] verify=99d0d07868912123 peak=73 ledger=b5774ef1d17e50b5 makespan=82 sim=e7859f4c349675f5 counter=12321e083d8248c3 om=cbf29ce484222325
conventional/datapar/3 mut4: codes=["OV003"] verify=304865a835c61ca7 peak=73 ledger=d808a5e6f9a0955c makespan=75 sim=0247e5c4d0ad05d0 counter=6d6e7b00845ee592 om=cbf29ce484222325
conventional/pipeline/3: codes=[] verify=99d0d07868912123 peak=79 ledger=473c1cab346d2b0c makespan=47 sim=e79225e305fefd7b counter=dc193c081e43ea61 om=cbf29ce484222325
conventional/pipeline/3 mut0: codes=["OV101", "OV401"] verify=4bb9f578b18476ef ledger_err=863b7e0447aaf367 sim_err="operation dW1 scheduled before its dependency S[dO2]" om=fe6c11311f84c0a9
conventional/pipeline/3 mut1: codes=[] verify=99d0d07868912123 peak=79 ledger=473c1cab346d2b0c makespan=47 sim=22313ebcddf30e1c counter=dc193c081e43ea61 om=cbf29ce484222325
conventional/pipeline/3 mut2: codes=[] verify=99d0d07868912123 peak=79 ledger=473c1cab346d2b0c makespan=47 sim=e79225e305fefd7b counter=dc193c081e43ea61 om=cbf29ce484222325
conventional/pipeline/3 mut3: codes=["OV102", "OV401"] verify=eae6e65ea9fa2890 ledger_err=863b7e0447aaf367 sim_err="operation dW1 scheduled before its dependency S[dO2]" om=c44b3a9db480f0dd
conventional/pipeline/3 mut4: codes=["OV003", "OV201"] verify=ece65b461c95ce34 peak=71 ledger=d06139d135d14f04 makespan=35 sim=1bc511b170b24c6a counter=20c1f40844f94809 om=0bf353f9ef3713d0
fastforward/single/3: codes=[] verify=99d0d07868912123 peak=79 ledger=ce7e0a764ad2b1a2 makespan=41 sim=1486422bde1384cd counter=dc193c081e43ea61 om=cbf29ce484222325
fastforward/single/3 mut0: codes=[] verify=99d0d07868912123 peak=79 ledger=ce7e0a764ad2b1a2 makespan=46 sim=44583f90918e5603 counter=dc193c081e43ea61 om=f69c42ef2062f71f
fastforward/single/3 mut1: codes=["OV101"] verify=cd62e907abe58a21 ledger_err=cf827f50647f5b79 sim_err="operation U2 scheduled before its dependency dW2" om=a59e494484f091b7
fastforward/single/3 mut2: codes=[] verify=99d0d07868912123 peak=79 ledger=ce7e0a764ad2b1a2 makespan=46 sim=44583f90918e5603 counter=dc193c081e43ea61 om=f69c42ef2062f71f
fastforward/single/3 mut3: codes=["OV102"] verify=15c12e8d9781bc50 ledger_err=e055ad64db2074a9 sim_err="operation U3 scheduled before its dependency dW3" om=cbf29ce484222325
fastforward/single/3 mut4: codes=["OV003"] verify=d441b4462a6d7891 peak=79 ledger=5e7dfcffeaf5bbd7 makespan=37 sim=5afd062aaa3f610b counter=eab7b8b9d87fcfdc om=cbf29ce484222325
fastforward/datapar/3: codes=[] verify=99d0d07868912123 peak=79 ledger=ce7e0a764ad2b1a2 makespan=53 sim=1225e5fd28af18d8 counter=dc193c081e43ea61 om=cbf29ce484222325
fastforward/datapar/3 mut0: codes=[] verify=99d0d07868912123 peak=79 ledger=ce7e0a764ad2b1a2 makespan=71 sim=daecf7ead70cf6aa counter=dc193c081e43ea61 om=cbf29ce484222325
fastforward/datapar/3 mut1: codes=[] verify=99d0d07868912123 peak=79 ledger=ce7e0a764ad2b1a2 makespan=53 sim=4527b5d0af740646 counter=dc193c081e43ea61 om=cbf29ce484222325
fastforward/datapar/3 mut2: codes=[] verify=99d0d07868912123 peak=79 ledger=ce7e0a764ad2b1a2 makespan=71 sim=daecf7ead70cf6aa counter=dc193c081e43ea61 om=cbf29ce484222325
fastforward/datapar/3 mut3: codes=["OV101"] verify=18d2727cd028ca22 ledger_err=abf097fcb9c0689a sim_err="operation U2 scheduled before its dependency S[dW2]" om=e3b748d40cf19e43
fastforward/datapar/3 mut4: codes=["OV003", "OV201"] verify=f01ace1720cfa997 peak=79 ledger=b2e0df012406d49f makespan=43 sim=80ec7cd383cd4309 counter=42c7eccb6d64447a om=cbf29ce484222325
fastforward/pipeline/3: codes=[] verify=99d0d07868912123 peak=79 ledger=473c1cab346d2b0c makespan=47 sim=e79225e305fefd7b counter=dc193c081e43ea61 om=cbf29ce484222325
fastforward/pipeline/3 mut0: codes=["OV101", "OV401"] verify=6bdbdee72b8db7e7 ledger_err=863b7e0447aaf367 sim_err="operation dW1 scheduled before its dependency S[dO2]" om=ac75a518a1f6f277
fastforward/pipeline/3 mut1: codes=[] verify=99d0d07868912123 peak=73 ledger=2b5fe59788f18910 makespan=47 sim=20f665249da328d0 counter=12321e083d8248c3 om=cbf29ce484222325
fastforward/pipeline/3 mut2: codes=["OV101"] verify=f73ef4e711d5abff ledger_err=17e6bf82ceed70ec sim_err="operation F3 scheduled before its dependency U3" om=b33f4620cd322f4f
fastforward/pipeline/3 mut3: codes=[] verify=99d0d07868912123 peak=73 ledger=2b5fe59788f18910 makespan=47 sim=84059ab6ce26547b counter=12321e083d8248c3 om=cbf29ce484222325
fastforward/pipeline/3 mut4: codes=["OV003", "OV201"] verify=7f9b459b61303d23 peak=92 ledger=1172ca3ad839b608 makespan=37 sim=cfa9cc7fe030d20d counter=5550f6d5a86f5636 om=c44b3a9db480f0dd
multiregion/single/3: codes=[] verify=99d0d07868912123 peak=79 ledger=b2d9ea012400c8a2 makespan=24 sim=ce4ddb8d2115b587 counter=42c159cb6d5edf03 om=cbf29ce484222325
multiregion/single/3 mut0: codes=["OV101", "OV401"] verify=8c2d5bd967105a1e ledger_err=bc94c8f83aef6f70 sim_err="operation dO2 scheduled before its dependency dO3" om=3c1daaf1913c404d
multiregion/single/3 mut1: codes=[] verify=99d0d07868912123 peak=79 ledger=cf3d8e0d9d3540e3 makespan=26 sim=be98f3e2f14224d4 counter=42c159cb6d5edf03 om=cbf29ce484222325
multiregion/single/3 mut2: codes=[] verify=99d0d07868912123 peak=79 ledger=b2d9ea012400c8a2 makespan=24 sim=ce4ddb8d2115b587 counter=42c159cb6d5edf03 om=cbf29ce484222325
multiregion/single/3 mut3: codes=[] verify=99d0d07868912123 peak=79 ledger=b2d9ea012400c8a2 makespan=24 sim=ce4ddb8d2115b587 counter=42c159cb6d5edf03 om=cbf29ce484222325
multiregion/single/3 mut4: codes=[] verify=99d0d07868912123 peak=79 ledger=b2cfdc0123f85c53 makespan=24 sim=18171d95bed7497e counter=42d8e7cb6d72af2e om=1ca8632ffabe4a6d
reversek/datapar/3: codes=[] verify=99d0d07868912123 peak=73 ledger=8830bf346ae178ec makespan=66 sim=a07f309bf7a5f63c counter=12321e083d8248c3 om=cbf29ce484222325
reversek/datapar/3 mut0: codes=[] verify=99d0d07868912123 peak=73 ledger=8830bf346ae178ec makespan=66 sim=256ec48a814ca982 counter=12321e083d8248c3 om=cbf29ce484222325
reversek/datapar/3 mut1: codes=[] verify=99d0d07868912123 peak=86 ledger=20935d11201aa6cf makespan=59 sim=7d22b5d29d4b8fe2 counter=c59baade74c0eb2f om=cbf29ce484222325
reversek/datapar/3 mut2: codes=[] verify=99d0d07868912123 peak=73 ledger=8830bf346ae178ec makespan=66 sim=fd2c24c56c1c070e counter=12321e083d8248c3 om=cbf29ce484222325
reversek/datapar/3 mut3: codes=[] verify=99d0d07868912123 peak=73 ledger=8830bf346ae178ec makespan=73 sim=cd8dc476fe393e30 counter=12321e083d8248c3 om=cbf29ce484222325
reversek/datapar/3 mut4: codes=["OV003"] verify=41802fa83f7f0781 peak=73 ledger=4c5148119d23775d makespan=55 sim=6f027c441f0673c8 counter=6d6e7500845edb60 om=cbf29ce484222325
ooopipe2/pipeline/3: codes=[] verify=99d0d07868912123 peak=79 ledger=473c1cab346d2b0c makespan=47 sim=e79225e305fefd7b counter=dc193c081e43ea61 om=cbf29ce484222325
ooopipe2/pipeline/3 mut0: codes=[] verify=99d0d07868912123 peak=79 ledger=473c1cab346d2b0c makespan=47 sim=e79225e305fefd7b counter=dc193c081e43ea61 om=cbf29ce484222325
ooopipe2/pipeline/3 mut1: codes=["OV102", "OV401"] verify=f922c72460af5b44 ledger_err=863b7e0447aaf367 sim_err="operation dW1 scheduled before its dependency S[dO2]" om=7d2eb2a88a68a626
ooopipe2/pipeline/3 mut2: codes=[] verify=99d0d07868912123 peak=79 ledger=473c1cab346d2b0c makespan=47 sim=e79225e305fefd7b counter=dc193c081e43ea61 om=cbf29ce484222325
ooopipe2/pipeline/3 mut3: codes=[] verify=99d0d07868912123 peak=79 ledger=473c1cab346d2b0c makespan=47 sim=886f2fa1b65304a1 counter=dc193c081e43ea61 om=cbf29ce484222325
ooopipe2/pipeline/3 mut4: codes=["OV003", "OV201"] verify=7f9b459b61303d23 peak=92 ledger=1172ca3ad839b608 makespan=37 sim=cfa9cc7fe030d20d counter=5550f6d5a86f5636 om=c44b3a9db480f0dd
layerpipe/single/3: codes=[] verify=99d0d07868912123 peak=79 ledger=ce7e0a764ad2b1a2 makespan=41 sim=da08adc058cc5ec5 counter=dc193c081e43ea61 om=cbf29ce484222325
layerpipe/single/3 mut0: codes=["OV101", "OV401"] verify=bcce7692c7be7e4c ledger_err=9065ef042bc32668 sim_err="operation F1 scheduled before its dependency U1" om=bf81fcbd41919169
layerpipe/single/3 mut1: codes=[] verify=99d0d07868912123 peak=79 ledger=ce7e0a764ad2b1a2 makespan=41 sim=8c52c6321ebace80 counter=dc193c081e43ea61 om=cbf29ce484222325
layerpipe/single/3 mut2: codes=["OV101", "OV401"] verify=a46ee6a1d8c26e67 ledger_err=bc94c8f83aef6f70 sim_err="operation dO2 scheduled before its dependency dO3" om=031657872c9304d4
layerpipe/single/3 mut3: codes=["OV102"] verify=ed1e081b793a3672 ledger_err=9065ef042bc32668 sim_err="operation F1 scheduled before its dependency U1" om=98475e0c435b3c7d
layerpipe/single/3 mut4: codes=["OV003"] verify=8627304cbad151ae peak=79 ledger=ce7e0a764ad2b1a2 makespan=36 sim=59758e8c1d9c4dab counter=dc193c081e43ea61 om=cbf29ce484222325
layerpipe/datapar/3: codes=[] verify=99d0d07868912123 peak=79 ledger=ce7e0a764ad2b1a2 makespan=67 sim=3896a752f03f81ba counter=dc193c081e43ea61 om=cbf29ce484222325
layerpipe/datapar/3 mut0: codes=["OV102"] verify=1c1a90fd91b3bdb7 ledger_err=9065ef042bc32668 sim_err="operation F1 scheduled before its dependency U1" om=97252a296bab14bf
layerpipe/datapar/3 mut1: codes=["OV101"] verify=9f24ea4abb1c979b ledger_err=9065ef042bc32668 sim_err="operation F1 scheduled before its dependency U1" om=cbf29ce484222325
layerpipe/datapar/3 mut2: codes=["OV101", "OV401"] verify=c8f0fe633fb4cb55 ledger_err=3f20bc6a0dfa05da sim_err="operation F2 scheduled before its dependency U2" om=f9ff730bbec06bff
layerpipe/datapar/3 mut3: codes=[] verify=99d0d07868912123 peak=79 ledger=ce7e0a764ad2b1a2 makespan=67 sim=3896a752f03f81ba counter=dc193c081e43ea61 om=cbf29ce484222325
layerpipe/datapar/3 mut4: codes=["OV003"] verify=304865a835c61ca7 peak=79 ledger=b2e0dd012406d139 makespan=60 sim=126cbee0b80dd26e counter=42c7e6cb6d643a48 om=cbf29ce484222325
twobp/single/3: codes=[] verify=99d0d07868912123 peak=73 ledger=39991d022613bdd7 makespan=52 sim=eb05a3579daaaff6 counter=12321e083d8248c3 om=cbf29ce484222325
twobp/single/3 mut0: codes=[] verify=99d0d07868912123 peak=79 ledger=ce7e0a764ad2b1a2 makespan=44 sim=5096e79cf48b8f1c counter=dc193c081e43ea61 om=cbf29ce484222325
twobp/single/3 mut1: codes=[] verify=99d0d07868912123 peak=92 ledger=356ec4c47f00bc5c makespan=46 sim=00b407497a47eb0a counter=5550f6d5a86f5636 om=cbf29ce484222325
twobp/single/3 mut2: codes=[] verify=99d0d07868912123 peak=73 ledger=39991d022613bdd7 makespan=52 sim=eb05a3579daaaff6 counter=12321e083d8248c3 om=cbf29ce484222325
twobp/single/3 mut3: codes=["OV101"] verify=a2f7fb3003486458 ledger_err=e4e68493ba384166 sim_err="operation dW1 scheduled before its dependency dO2" om=bbe64c6f90dc31d2
twobp/single/3 mut4: codes=["OV003"] verify=f275df4c670a200a peak=73 ledger=f2e6a9a6b3889296 makespan=44 sim=90334f926962272e counter=6d6e7b00845ee592 om=cbf29ce484222325
twobp/datapar/3: codes=[] verify=99d0d07868912123 peak=73 ledger=39991d022613bdd7 makespan=68 sim=0d96ffced7549217 counter=12321e083d8248c3 om=cbf29ce484222325
twobp/datapar/3 mut0: codes=["OV101", "OV401"] verify=62e4d285890ca9db ledger_err=18204682cf1e1b98 sim_err="operation F3 scheduled before its dependency F2" om=c039ccbb0b7f6480
twobp/datapar/3 mut1: codes=["OV102"] verify=4def0834c5c09505 ledger_err=abf097fcb9c0689a sim_err="operation U2 scheduled before its dependency S[dW2]" om=6154d71c9b767876
twobp/datapar/3 mut2: codes=["OV101", "OV401"] verify=e67e02e13605ee28 ledger_err=3f20bc6a0dfa05da sim_err="operation F2 scheduled before its dependency U2" om=c039ccbb0b7f6480
twobp/datapar/3 mut3: codes=[] verify=99d0d07868912123 peak=73 ledger=39991d022613bdd7 makespan=66 sim=74ee5ba1ff68eaf3 counter=12321e083d8248c3 om=cbf29ce484222325
twobp/datapar/3 mut4: codes=["OV003", "OV201"] verify=20df9b06da11c945 peak=73 ledger=f2e6aea6b3889b15 makespan=59 sim=006f675552d7fe9d counter=6d6e7800845ee079 om=cbf29ce484222325
twobp/pipeline/3: codes=[] verify=99d0d07868912123 peak=79 ledger=473c1cab346d2b0c makespan=47 sim=e79225e305fefd7b counter=dc193c081e43ea61 om=cbf29ce484222325
twobp/pipeline/3 mut0: codes=["OV101"] verify=2f5f3ce63e070f9a ledger_err=9065ef042bc32668 sim_err="operation F1 scheduled before its dependency U1" om=e74d6ea4339d9e73
twobp/pipeline/3 mut1: codes=[] verify=99d0d07868912123 peak=79 ledger=473c1cab346d2b0c makespan=47 sim=69de30614a8ba695 counter=dc193c081e43ea61 om=cbf29ce484222325
twobp/pipeline/3 mut2: codes=["OV102", "OV401"] verify=eae6e65ea9fa2890 ledger_err=863b7e0447aaf367 sim_err="operation dW1 scheduled before its dependency S[dO2]" om=c44b3a9db480f0dd
twobp/pipeline/3 mut3: codes=[] verify=99d0d07868912123 peak=92 ledger=108346f3656266cc makespan=51 sim=491b702ced0d6ceb counter=5550f6d5a86f5636 om=cbf29ce484222325
twobp/pipeline/3 mut4: codes=["OV003", "OV201"] verify=7f9b459b61303d23 peak=92 ledger=1172ca3ad839b608 makespan=37 sim=cfa9cc7fe030d20d counter=5550f6d5a86f5636 om=c44b3a9db480f0dd
gradinterleaved/single/3: codes=[] verify=99d0d07868912123 peak=73 ledger=8830bf346ae178ec makespan=55 sim=b0793edd2f717c35 counter=12321e083d8248c3 om=cbf29ce484222325
gradinterleaved/single/3 mut0: codes=[] verify=99d0d07868912123 peak=73 ledger=8830bf346ae178ec makespan=55 sim=bb8b38a6ce3a0a6d counter=12321e083d8248c3 om=cbf29ce484222325
gradinterleaved/single/3 mut1: codes=["OV101", "OV401"] verify=762fc94ae683fc59 ledger_err=95c0ef79fef28918 sim_err="operation dW2 scheduled before its dependency dO3" om=7f07725eccc0c810
gradinterleaved/single/3 mut2: codes=["OV101", "OV401"] verify=f3af64d1bd095e95 ledger_err=17e6bf82ceed70ec sim_err="operation F3 scheduled before its dependency U3" om=a2e8f4e81b8a0295
gradinterleaved/single/3 mut3: codes=["OV101"] verify=a9273977af0c63c7 ledger_err=ff7833f5686b09d1 sim_err="operation U1 scheduled before its dependency dW1" om=06f4bd9800bb374c
gradinterleaved/single/3 mut4: codes=["OV003"] verify=8f628c460389cd29 peak=86 ledger=a0517689712a3d62 makespan=51 sim=af2779d514d06ff4 counter=bd44347616267740 om=cbf29ce484222325
gradinterleaved/datapar/3: codes=[] verify=99d0d07868912123 peak=73 ledger=8830bf346ae178ec makespan=63 sim=92284ccbb438d688 counter=12321e083d8248c3 om=cbf29ce484222325
gradinterleaved/datapar/3 mut0: codes=["OV101", "OV401"] verify=fb1b5e7993640ece ledger_err=bc94c8f83aef6f70 sim_err="operation dO2 scheduled before its dependency dO3" om=9d8194b909767470
gradinterleaved/datapar/3 mut1: codes=[] verify=99d0d07868912123 peak=73 ledger=8830bf346ae178ec makespan=80 sim=d338be3667618c4c counter=12321e083d8248c3 om=cbf29ce484222325
gradinterleaved/datapar/3 mut2: codes=["OV101"] verify=2349565a484bd664 ledger_err=95c0ef79fef28918 sim_err="operation dW2 scheduled before its dependency dO3" om=6633bcfac367d759
gradinterleaved/datapar/3 mut3: codes=["OV101"] verify=18d2727cd028ca22 ledger_err=abf097fcb9c0689a sim_err="operation U2 scheduled before its dependency S[dW2]" om=504c45153a4c7b50
gradinterleaved/datapar/3 mut4: codes=["OV003"] verify=304865a835c61ca7 peak=73 ledger=4c5142119d236d2b makespan=63 sim=814f117969efe834 counter=6d6e7b00845ee592 om=cbf29ce484222325
"#;

const ZOO8: &str = r#"
conventional/single/8: codes=[] verify=99d0d07868912123 peak=140 ledger=5cb9e444da554107 makespan=144 sim=9a1ac9661971a2ef counter=e3029184773ce6ac om=cbf29ce484222325
conventional/single/8 mut0: codes=["OV101"] verify=f0faec1a7f8a88b8 ledger_err=62dcf69586d7937e sim_err="operation dW5 scheduled before its dependency dO6" om=109696683aa39a92
conventional/single/8 mut1: codes=["OV101", "OV401"] verify=83a07be0fa4104f2 ledger_err=b8cdc09edf63c19a sim_err="operation F4 scheduled before its dependency U4" om=cbf29ce484222325
conventional/single/8 mut2: codes=["OV101", "OV401"] verify=0556e0aaa3505afe ledger_err=b900b39edf8f051c sim_err="operation F4 scheduled before its dependency F3" om=d2327d15e807e9f9
conventional/single/8 mut3: codes=["OV101"] verify=b75df22018fe9197 ledger_err=e055ad64db2074a9 sim_err="operation U3 scheduled before its dependency dW3" om=144dc127567e41fa
conventional/single/8 mut4: codes=["OV003"] verify=d4451a462a705bba peak=149 ledger=d5094d76d5f870b8 makespan=139 sim=5f72b588a1475441 counter=8bb792257f4a8256 om=cbf29ce484222325
conventional/single/8 mut5: codes=[] verify=99d0d07868912123 peak=140 ledger=5cb9e444da554107 makespan=144 sim=0fc0a91d505c22d9 counter=e3029184773ce6ac om=cbf29ce484222325
conventional/single/8 mut6: codes=["OV101"] verify=b75df22018fe9197 ledger_err=e055ad64db2074a9 sim_err="operation U3 scheduled before its dependency dW3" om=718b657c0e1efb67
conventional/single/8 mut7: codes=["OV002"] verify=8d23e687a6f9e621 ledger_err=ceea9d9b7baad896 sim_err="operation U4 appears more than once" om_err=ceea9d9b7baad896
conventional/single/8 mut8: codes=["OV101"] verify=6beafee7373ddaf1 ledger_err=05582f56cef4dcf1 sim_err="operation U6 scheduled before its dependency dW6" om=becc64045e9d21c9
conventional/single/8 mut9: codes=["OV101", "OV401"] verify=7aa07ff19570401b ledger_err=9065ef042bc32668 sim_err="operation F1 scheduled before its dependency U1" om=cbf29ce484222325
conventional/single/8 mut10: codes=["OV001"] verify=0e20ef69470d63d4 ledger_err=0a3aeb7d2542f0ab sim_err="operation F999 is not part of the graph" om_err=0a3aeb7d2542f0ab
conventional/datapar/8: codes=[] verify=99d0d07868912123 peak=140 ledger=5cb9e444da554107 makespan=218 sim=2d6f2b6fcd5b6fdd counter=e3029184773ce6ac om=cbf29ce484222325
conventional/datapar/8 mut0: codes=["OV102"] verify=42a10636acefc53a ledger_err=1643964275253ab2 sim_err="operation U7 scheduled before its dependency S[dW7]" om=55bed009f4de652f
conventional/datapar/8 mut1: codes=[] verify=99d0d07868912123 peak=140 ledger=5cb9e444da554107 makespan=210 sim=a0524ab8ac757416 counter=e3029184773ce6ac om=cbf29ce484222325
conventional/datapar/8 mut2: codes=["OV102"] verify=0e2425559d7c23d6 ledger_err=e0555e1cf6eb03e6 sim_err="operation U8 scheduled before its dependency S[dW8]" om=c91d159901c1097f
conventional/datapar/8 mut3: codes=["OV102"] verify=b396f958e2209367 ledger_err=e0555e1cf6eb03e6 sim_err="operation U8 scheduled before its dependency S[dW8]" om=dbcab86f5835b947
conventional/datapar/8 mut4: codes=["OV003"] verify=8e43a6a86aa31f1a peak=140 ledger=e51c92fefedab89f makespan=207 sim=381c5c0106cdbac6 counter=fa4765169c7ef2ea om=cbf29ce484222325
conventional/datapar/8 mut5: codes=["OV102"] verify=0e2425559d7c23d6 ledger_err=e0555e1cf6eb03e6 sim_err="operation U8 scheduled before its dependency S[dW8]" om=abe210949ee9c106
conventional/datapar/8 mut6: codes=["OV102"] verify=1a67eae02dcdfa89 ledger_err=1643964275253ab2 sim_err="operation U7 scheduled before its dependency S[dW7]" om=7ca063270c58d79a
conventional/datapar/8 mut7: codes=["OV002"] verify=79705b905dadd902 ledger_err=79d2cd006696aec5 sim_err="operation F2 appears more than once" om_err=79d2cd006696aec5
conventional/datapar/8 mut8: codes=["OV102"] verify=8817980c5d290652 ledger_err=976b862c199d0586 sim_err="operation U4 scheduled before its dependency S[dW4]" om=20b8563f0ea758b4
conventional/datapar/8 mut9: codes=["OV101"] verify=ce922795ea3198cc ledger_err=17e6bf82ceed70ec sim_err="operation F3 scheduled before its dependency U3" om=8436dfa9f38c1a81
conventional/datapar/8 mut10: codes=["OV001"] verify=0e20ef69470d63d4 ledger_err=0a3aeb7d2542f0ab sim_err="operation F999 is not part of the graph" om_err=0a3aeb7d2542f0ab
conventional/pipeline/8: codes=[] verify=99d0d07868912123 peak=140 ledger=5cb9e444da554107 makespan=126 sim=36df204d779c1e16 counter=e3029184773ce6ac om=cbf29ce484222325
conventional/pipeline/8 mut0: codes=[] verify=99d0d07868912123 peak=140 ledger=5cb9e444da554107 makespan=126 sim=36df204d779c1e16 counter=e3029184773ce6ac om=cbf29ce484222325
conventional/pipeline/8 mut1: codes=["OV101", "OV401"] verify=d89fca3eb38918bb ledger_err=1bd018bf3c8ec7c5 sim_err="operation dO2 scheduled before its dependency S[dO3]" om=390593d606804f72
conventional/pipeline/8 mut2: codes=["OV101", "OV401"] verify=35ec8a8d4071ad37 ledger_err=1bd018bf3c8ec7c5 sim_err="operation dO2 scheduled before its dependency S[dO3]" om=9042f390b8b41af7
conventional/pipeline/8 mut3: codes=["OV102"] verify=4d6f36a7e9bd5645 ledger_err=9065ef042bc32668 sim_err="operation F1 scheduled before its dependency U1" om=e998ff015f77ff3b
conventional/pipeline/8 mut4: codes=["OV003", "OV201"] verify=c3ed270d90d13d2f peak=165 ledger=fdb5ff92b0a79574 makespan=103 sim=ea57b9261f26f0e5 counter=ded31893db1eeb9d om=990079ee59a3f085
conventional/pipeline/8 mut5: codes=["OV101", "OV401"] verify=1bd72a8186b4f7fa ledger_err=9065ef042bc32668 sim_err="operation F1 scheduled before its dependency U1" om=c272fc0c5f2e064a
conventional/pipeline/8 mut6: codes=["OV101", "OV401"] verify=d89fca3eb38918bb ledger_err=1bd018bf3c8ec7c5 sim_err="operation dO2 scheduled before its dependency S[dO3]" om=390593d606804f72
conventional/pipeline/8 mut7: codes=["OV002"] verify=568de7ddd976a5be ledger_err=db69603d99a191db sim_err="operation S[dO2] appears more than once" om_err=db69603d99a191db
conventional/pipeline/8 mut8: codes=["OV101"] verify=2f5f3ce63e070f9a ledger_err=9065ef042bc32668 sim_err="operation F1 scheduled before its dependency U1" om=b48e0fd6bbb10219
conventional/pipeline/8 mut9: codes=["OV102", "OV401"] verify=b3501bd633ca7174 ledger_err=1bd018bf3c8ec7c5 sim_err="operation dO2 scheduled before its dependency S[dO3]" om=9d5e01f9754549d0
conventional/pipeline/8 mut10: codes=["OV001"] verify=fd0d09ec2ed7f3bf ledger_err=0a3aeb7d2542f0ab sim_err="operation F999 is not part of the graph" om_err=0a3aeb7d2542f0ab
fastforward/single/8: codes=[] verify=99d0d07868912123 peak=144 ledger=293e781c0c41edf0 makespan=100 sim=8db6cc185cd944c5 counter=0709ad848c08bd40 om=cbf29ce484222325
fastforward/single/8 mut0: codes=[] verify=99d0d07868912123 peak=153 ledger=86e3f8c3044a28e2 makespan=100 sim=f9f213b49e70b5b2 counter=7e9d0c8d5c17181c om=cbf29ce484222325
fastforward/single/8 mut1: codes=["OV102", "OV401"] verify=d26c6e225a8ed765 ledger_err=ff7833f5686b09d1 sim_err="operation U1 scheduled before its dependency dW1" om=8af0e4ac6fa2e62a
fastforward/single/8 mut2: codes=["OV101", "OV401"] verify=7f8d6e9f143454df ledger_err=bc94c8f83aef6f70 sim_err="operation dO2 scheduled before its dependency dO3" om=60116d8ea598dfd5
fastforward/single/8 mut3: codes=[] verify=99d0d07868912123 peak=144 ledger=293e781c0c41edf0 makespan=107 sim=ebc6c20f3cc8afad counter=0709ad848c08bd40 om=cbf29ce484222325
fastforward/single/8 mut4: codes=["OV003"] verify=d44bd2462a760010 peak=165 ledger=915005ed738bcd4f makespan=91 sim=097f84626aefc7a5 counter=3e1f4ff34e8af67c om=6df06f6c5a14adbc
fastforward/single/8 mut5: codes=[] verify=99d0d07868912123 peak=164 ledger=721f07633f1f13ba makespan=108 sim=a591d8e134cd5b8d counter=d78aed93d762ff3a om=cbf29ce484222325
fastforward/single/8 mut6: codes=[] verify=99d0d07868912123 peak=144 ledger=293e781c0c41edf0 makespan=98 sim=7c7d10ddf7050f4d counter=0709ad848c08bd40 om=cbf29ce484222325
fastforward/single/8 mut7: codes=["OV002"] verify=a8b836cb442b555e ledger_err=4dbbed4077490cc1 sim_err="operation dO5 appears more than once" om_err=4dbbed4077490cc1
fastforward/single/8 mut8: codes=[] verify=99d0d07868912123 peak=147 ledger=7210121ccba921e8 makespan=100 sim=07bdc9f74fa943ab counter=20633e849a368e51 om=cbf29ce484222325
fastforward/single/8 mut9: codes=["OV101"] verify=1db7585f5f13f3ed ledger_err=63acb61de5744d31 sim_err="operation U8 scheduled before its dependency dW8" om=a1e8c8564f91b55a
fastforward/single/8 mut10: codes=["OV001"] verify=0e20ef69470d63d4 ledger_err=0a3aeb7d2542f0ab sim_err="operation F999 is not part of the graph" om_err=0a3aeb7d2542f0ab
fastforward/datapar/8: codes=[] verify=99d0d07868912123 peak=144 ledger=293e781c0c41edf0 makespan=118 sim=1f51282c5835692a counter=0709ad848c08bd40 om=cbf29ce484222325
fastforward/datapar/8 mut0: codes=[] verify=99d0d07868912123 peak=164 ledger=721f07633f1f13ba makespan=154 sim=915060158283d474 counter=d78aed93d762ff3a om=cbf29ce484222325
fastforward/datapar/8 mut1: codes=[] verify=99d0d07868912123 peak=144 ledger=293e781c0c41edf0 makespan=147 sim=0eaedd30c39d229e counter=0709ad848c08bd40 om=cbf29ce484222325
fastforward/datapar/8 mut2: codes=[] verify=99d0d07868912123 peak=144 ledger=293e781c0c41edf0 makespan=118 sim=1f51282c5835692a counter=0709ad848c08bd40 om=cbf29ce484222325
fastforward/datapar/8 mut3: codes=[] verify=99d0d07868912123 peak=152 ledger=bc14d19bfe17a97a makespan=140 sim=0580597a23f66d49 counter=8966478d62cd1067 om=cbf29ce484222325
fastforward/datapar/8 mut4: codes=["OV003", "OV201"] verify=20df9b06da11c945 peak=144 ledger=57175aa8d40a11b0 makespan=109 sim=24f1abd8419b9985 counter=fe324b39f2dc2040 om=cbf29ce484222325
fastforward/datapar/8 mut5: codes=["OV101", "OV401"] verify=1f1c22457bde7ae0 ledger_err=da1f4218d5d95f56 sim_err="operation dO5 scheduled before its dependency dO6" om=f4b84e46d1d680e5
fastforward/datapar/8 mut6: codes=["OV101", "OV401"] verify=ffd3777b589a70ca ledger_err=7b7677a777718707 sim_err="operation dO8 scheduled before its dependency Loss" om=e98c08d62d6d1883
fastforward/datapar/8 mut7: codes=["OV002"] verify=e6cbc53b8fd5db82 ledger_err=4dbbed4077490cc1 sim_err="operation dO5 appears more than once" om_err=4dbbed4077490cc1
fastforward/datapar/8 mut8: codes=[] verify=99d0d07868912123 peak=144 ledger=293e781c0c41edf0 makespan=139 sim=c377e2322d78904b counter=0709ad848c08bd40 om=cbf29ce484222325
fastforward/datapar/8 mut9: codes=["OV102"] verify=79f154d80bf5f666 ledger_err=2fa8e9594ae1629e sim_err="operation U5 scheduled before its dependency S[dW5]" om=cbf29ce484222325
fastforward/datapar/8 mut10: codes=["OV001"] verify=0e20ef69470d63d4 ledger_err=0a3aeb7d2542f0ab sim_err="operation F999 is not part of the graph" om_err=0a3aeb7d2542f0ab
fastforward/pipeline/8: codes=[] verify=99d0d07868912123 peak=155 ledger=9cf727cab71f6b0e makespan=120 sim=860df3f2036b741c counter=b4b58e8d7b54d35e om=cbf29ce484222325
fastforward/pipeline/8 mut0: codes=[] verify=99d0d07868912123 peak=155 ledger=9cf727cab71f6b0e makespan=120 sim=860df3f2036b741c counter=b4b58e8d7b54d35e om=cbf29ce484222325
fastforward/pipeline/8 mut1: codes=["OV102"] verify=75d86e536d39e2b2 ledger_err=1bd018bf3c8ec7c5 sim_err="operation dO2 scheduled before its dependency S[dO3]" om=1727e6d558d50cad
fastforward/pipeline/8 mut2: codes=["OV101"] verify=b106f58360d5a627 ledger_err=e055ad64db2074a9 sim_err="operation U3 scheduled before its dependency dW3" om=a1fedd0388a316cf
fastforward/pipeline/8 mut3: codes=[] verify=99d0d07868912123 peak=155 ledger=9cf727cab71f6b0e makespan=120 sim=860df3f2036b741c counter=b4b58e8d7b54d35e om=cbf29ce484222325
fastforward/pipeline/8 mut4: codes=["OV003"] verify=618b1466c15a5428 peak=155 ledger=9cf727cab71f6b0e makespan=120 sim=c2b394c4d9a1299a counter=b4b58e8d7b54d35e om=cbf29ce484222325
fastforward/pipeline/8 mut5: codes=["OV101", "OV401"] verify=170de8d19ecf19dc ledger_err=1bd018bf3c8ec7c5 sim_err="operation dO2 scheduled before its dependency S[dO3]" om=fbceff13b0a5876e
fastforward/pipeline/8 mut6: codes=[] verify=99d0d07868912123 peak=155 ledger=9cf727cab71f6b0e makespan=120 sim=238eb350758fa932 counter=b4b58e8d7b54d35e om=cbf29ce484222325
fastforward/pipeline/8 mut7: codes=["OV002"] verify=c341313b3e52ae9c ledger_err=fb5a10a2710f8502 sim_err="operation dO2 appears more than once" om_err=fb5a10a2710f8502
fastforward/pipeline/8 mut8: codes=["OV101", "OV401"] verify=695ba0d8f510939b ledger_err=1bd018bf3c8ec7c5 sim_err="operation dO2 scheduled before its dependency S[dO3]" om=9b309548962907cb
fastforward/pipeline/8 mut9: codes=["OV102"] verify=552ae12bddb1601d ledger_err=b8cdc09edf63c19a sim_err="operation F4 scheduled before its dependency U4" om=50d0e790d22c5f3a
fastforward/pipeline/8 mut10: codes=["OV001"] verify=d4a20962a571c33b ledger_err=0a3aeb7d2542f0ab sim_err="operation F999 is not part of the graph" om_err=0a3aeb7d2542f0ab
multiregion/single/8: codes=[] verify=99d0d07868912123 peak=144 ledger=573271a8d421007d makespan=59 sim=b2461e4adf07e78b counter=fe4de239f2f3e88d om=cbf29ce484222325
multiregion/single/8 mut0: codes=[] verify=99d0d07868912123 peak=189 ledger=00c30e3e9d126110 makespan=83 sim=1a7d01e08f631c0d counter=0396c64a6c7d3b24 om=cbf29ce484222325
multiregion/single/8 mut1: codes=[] verify=99d0d07868912123 peak=144 ledger=546e9508cfc9c72e makespan=59 sim=a634a2696026c67d counter=fe4de239f2f3e88d om=cbf29ce484222325
multiregion/single/8 mut2: codes=["OV101", "OV401"] verify=06fc7b3e1ae6b35f ledger_err=5ee77c8f0f602192 sim_err="operation dO7 scheduled before its dependency dO8" om=0cca100df667cc04
multiregion/single/8 mut3: codes=[] verify=99d0d07868912123 peak=145 ledger=8bb1d665083e3fd6 makespan=63 sim=1d2e9b3da6268802 counter=5e7d424071f62c1c om=cbf29ce484222325
multiregion/single/8 mut4: codes=[] verify=99d0d07868912123 peak=168 ledger=fe69eac687ba7f5a makespan=53 sim=e671a1fa400ec09d counter=57e606b0dbbdd593 om=af1fdee2965fb221
multiregion/single/8 mut5: codes=[] verify=99d0d07868912123 peak=144 ledger=573271a8d421007d makespan=59 sim=b2461e4adf07e78b counter=fe4de239f2f3e88d om=cbf29ce484222325
multiregion/single/8 mut6: codes=[] verify=99d0d07868912123 peak=157 ledger=9a860b54944d7d22 makespan=59 sim=560ef3c6386ae2c8 counter=3ffe0256d1b546bd om=cbf29ce484222325
multiregion/single/8 mut7: codes=["OV002"] verify=5748c2be66d72f41 ledger_err=037c742dadc7539c sim_err="operation Loss appears more than once" om_err=037c742dadc7539c
multiregion/single/8 mut8: codes=[] verify=99d0d07868912123 peak=144 ledger=573271a8d421007d makespan=70 sim=7314c3f35ee0d08c counter=fe4de239f2f3e88d om=cbf29ce484222325
multiregion/single/8 mut9: codes=[] verify=99d0d07868912123 peak=152 ledger=aef1e810c220d893 makespan=59 sim=8eb18af8a08ca388 counter=45bd723ee258f6f8 om=cbf29ce484222325
multiregion/single/8 mut10: codes=["OV001"] verify=b1e85e6036417a00 ledger_err=0a3aeb7d2542f0ab sim_err="operation F999 is not part of the graph" om_err=0a3aeb7d2542f0ab
reversek/datapar/8: codes=[] verify=99d0d07868912123 peak=140 ledger=bf6bc5352bb7e51d makespan=158 sim=84a2ed7a463b6643 counter=e3029184773ce6ac om=cbf29ce484222325
reversek/datapar/8 mut0: codes=["OV101", "OV401"] verify=d113df11f943dca5 ledger_err=bc94c8f83aef6f70 sim_err="operation dO2 scheduled before its dependency dO3" om=e84329d01b25ca05
reversek/datapar/8 mut1: codes=[] verify=99d0d07868912123 peak=140 ledger=bf6bc5352bb7e51d makespan=156 sim=0d8e23bc668e4d52 counter=e3029184773ce6ac om=cbf29ce484222325
reversek/datapar/8 mut2: codes=["OV101", "OV401"] verify=6d71339c79023677 ledger_err=9065ef042bc32668 sim_err="operation F1 scheduled before its dependency U1" om=4446a68ec3a927c6
reversek/datapar/8 mut3: codes=["OV101"] verify=84bc6c06899bb1d2 ledger_err=f0122c4b1648ef82 sim_err="operation U6 scheduled before its dependency S[dW6]" om=3a82b55ea5ea3546
reversek/datapar/8 mut4: codes=["OV003"] verify=8e43a6a86aa31f1a peak=140 ledger=fc01c159497753a1 makespan=158 sim=12ffd8141cd44508 counter=fa4765169c7ef2ea om=cbf29ce484222325
reversek/datapar/8 mut5: codes=[] verify=99d0d07868912123 peak=140 ledger=bf6bc5352bb7e51d makespan=164 sim=3ec02087ef79fd35 counter=e3029184773ce6ac om=cbf29ce484222325
reversek/datapar/8 mut6: codes=["OV101", "OV401"] verify=ad66af3d424f4777 ledger_err=3f20bc6a0dfa05da sim_err="operation F2 scheduled before its dependency U2" om=1a34622ce6461b84
reversek/datapar/8 mut7: codes=["OV002"] verify=a4e429ee424e6019 ledger_err=1b7eed4ae1656a02 sim_err="operation S[dW1] appears more than once" om_err=1b7eed4ae1656a02
reversek/datapar/8 mut8: codes=[] verify=99d0d07868912123 peak=140 ledger=bf6bc5352bb7e51d makespan=158 sim=84a2ed7a463b6643 counter=e3029184773ce6ac om=cbf29ce484222325
reversek/datapar/8 mut9: codes=["OV101"] verify=84bc6c06899bb1d2 ledger_err=f0122c4b1648ef82 sim_err="operation U6 scheduled before its dependency S[dW6]" om=3a82b55ea5ea3546
reversek/datapar/8 mut10: codes=["OV001"] verify=d4a20962a571c33b ledger_err=0a3aeb7d2542f0ab sim_err="operation F999 is not part of the graph" om_err=0a3aeb7d2542f0ab
ooopipe2/pipeline/8: codes=[] verify=99d0d07868912123 peak=173 ledger=0c883da08451e5ec makespan=119 sim=bde3dc2870fcbabd counter=b7ce209ce2f28e52 om=cbf29ce484222325
ooopipe2/pipeline/8 mut0: codes=["OV102", "OV401"] verify=0dd4df234856021c ledger_err=6bd8d6b067cb2947 sim_err="operation dO5 scheduled before its dependency S[dO6]" om=bdf9d2214aeab0db
ooopipe2/pipeline/8 mut1: codes=["OV102", "OV401"] verify=8858f5f9514acda2 ledger_err=6bd8d6b067cb2947 sim_err="operation dO5 scheduled before its dependency S[dO6]" om=2b88944968350c5e
ooopipe2/pipeline/8 mut2: codes=["OV101"] verify=af4015ef8b3f7ab2 ledger_err=4d79e459412b3048 sim_err="operation F5 scheduled before its dependency F4" om=2e1a35c1953af586
ooopipe2/pipeline/8 mut3: codes=["OV102", "OV401"] verify=153f5a178fa1353d ledger_err=6bd8d6b067cb2947 sim_err="operation dO5 scheduled before its dependency S[dO6]" om=5efe3b122260ddbd
ooopipe2/pipeline/8 mut4: codes=["OV003", "OV201"] verify=726d62f1608fa664 peak=173 ledger=47cc708cfcbc8926 makespan=107 sim=a49220e9be05590e counter=b7ce209ce2f28e52 om=f95bb80180f03469
ooopipe2/pipeline/8 mut5: codes=["OV102", "OV401"] verify=becd531c892bb878 ledger_err=6bd8d6b067cb2947 sim_err="operation dO5 scheduled before its dependency S[dO6]" om=dbf29c40cb711a0d
ooopipe2/pipeline/8 mut6: codes=["OV101"] verify=af4015ef8b3f7ab2 ledger_err=4d79e459412b3048 sim_err="operation F5 scheduled before its dependency F4" om=2e1a35c1953af586
ooopipe2/pipeline/8 mut7: codes=["OV002"] verify=e3ac2af004db6375 ledger_err=0c46df79c39463b1 sim_err="operation U7 appears more than once" om_err=0c46df79c39463b1
ooopipe2/pipeline/8 mut8: codes=[] verify=99d0d07868912123 peak=173 ledger=0c883da08451e5ec makespan=119 sim=bde3dc2870fcbabd counter=b7ce209ce2f28e52 om=cbf29ce484222325
ooopipe2/pipeline/8 mut9: codes=["OV101", "OV401"] verify=1bb1d1b79c58146d ledger_err=863b7e0447aaf367 sim_err="operation dW1 scheduled before its dependency S[dO2]" om=09cae7035df965ce
ooopipe2/pipeline/8 mut10: codes=["OV001"] verify=cfeea20c36f22374 ledger_err=0a3aeb7d2542f0ab sim_err="operation F999 is not part of the graph" om_err=0a3aeb7d2542f0ab
layerpipe/single/8: codes=[] verify=99d0d07868912123 peak=140 ledger=a4ecda961cdea5d3 makespan=97 sim=c21d17d6c60fc0c6 counter=e3029184773ce6ac om=cbf29ce484222325
layerpipe/single/8 mut0: codes=["OV101", "OV401"] verify=067a62a9acd0fa09 ledger_err=d24814a4894629ec sim_err="operation F8 scheduled before its dependency F7" om=f87af733f4adf3e2
layerpipe/single/8 mut1: codes=[] verify=99d0d07868912123 peak=140 ledger=239fe870eb2465f6 makespan=98 sim=8ec6c92255f441f5 counter=e3029184773ce6ac om=cbf29ce484222325
layerpipe/single/8 mut2: codes=[] verify=99d0d07868912123 peak=140 ledger=a4ecda961cdea5d3 makespan=109 sim=d1693fb2a19bf753 counter=e3029184773ce6ac om=cbf29ce484222325
layerpipe/single/8 mut3: codes=[] verify=99d0d07868912123 peak=140 ledger=a4ecda961cdea5d3 makespan=98 sim=302af9a94085251f counter=e3029184773ce6ac om=cbf29ce484222325
layerpipe/single/8 mut4: codes=["OV003"] verify=8f5f32460386fe64 peak=156 ledger=25c3f5523024ac5c makespan=97 sim=f2dcd7b6f0b5a4c5 counter=b0140e5af21c8835 om=cbf29ce484222325
layerpipe/single/8 mut5: codes=["OV101", "OV401"] verify=a6f51045cec139b1 ledger_err=17e6bf82ceed70ec sim_err="operation F3 scheduled before its dependency U3" om=aae1c5cf06ed0d42
layerpipe/single/8 mut6: codes=[] verify=99d0d07868912123 peak=140 ledger=a4ecda961cdea5d3 makespan=103 sim=ddc2c9bc60e3d771 counter=e3029184773ce6ac om=cbf29ce484222325
layerpipe/single/8 mut7: codes=["OV002"] verify=0611fa96adc3f5e9 ledger_err=06591d2f330af2ae sim_err="operation F5 appears more than once" om_err=06591d2f330af2ae
layerpipe/single/8 mut8: codes=["OV101", "OV401"] verify=cde570da734ac883 ledger_err=9065ef042bc32668 sim_err="operation F1 scheduled before its dependency U1" om=fec58fb89b58fe3a
layerpipe/single/8 mut9: codes=["OV101", "OV401"] verify=e51c350720149568 ledger_err=da1f4218d5d95f56 sim_err="operation dO5 scheduled before its dependency dO6" om=c5d8784175dd2a59
layerpipe/single/8 mut10: codes=["OV001"] verify=0e20ef69470d63d4 ledger_err=0a3aeb7d2542f0ab sim_err="operation F999 is not part of the graph" om_err=0a3aeb7d2542f0ab
layerpipe/datapar/8: codes=[] verify=99d0d07868912123 peak=140 ledger=239fe870eb2465f6 makespan=168 sim=f67c5ca804678faa counter=e3029184773ce6ac om=cbf29ce484222325
layerpipe/datapar/8 mut0: codes=["OV101", "OV401"] verify=fb15c6d8eb2fa164 ledger_err=5ee77c8f0f602192 sim_err="operation dO7 scheduled before its dependency dO8" om=1fc34b2eb7005867
layerpipe/datapar/8 mut1: codes=["OV101"] verify=c484581f2b1a81f1 ledger_err=9065ef042bc32668 sim_err="operation F1 scheduled before its dependency U1" om=c62cf83c73266ff1
layerpipe/datapar/8 mut2: codes=["OV101", "OV401"] verify=84ea5ae11aeba70d ledger_err=b900b39edf8f051c sim_err="operation F4 scheduled before its dependency F3" om=ddd85edd0b92486e
layerpipe/datapar/8 mut3: codes=[] verify=99d0d07868912123 peak=140 ledger=239fe870eb2465f6 makespan=172 sim=a66f2a632a80c9dd counter=e3029184773ce6ac om=cbf29ce484222325
layerpipe/datapar/8 mut4: codes=["OV003"] verify=41802fa83f7f0781 peak=140 ledger=ad2143df8edc08fb makespan=157 sim=764b498f90c0aedb counter=fa4766169c7ef49d om=cbf29ce484222325
layerpipe/datapar/8 mut5: codes=["OV101", "OV401"] verify=3ed3c1d0056a04eb ledger_err=8ce0a96e0ab7f382 sim_err="operation dO3 scheduled before its dependency dO4" om=d46468f575d859f4
layerpipe/datapar/8 mut6: codes=["OV102"] verify=85aff33a494018cf ledger_err=9065ef042bc32668 sim_err="operation F1 scheduled before its dependency U1" om=8a1c9205a69cb99e
layerpipe/datapar/8 mut7: codes=["OV002"] verify=a26afccf5f8b8307 ledger_err=d968dbac93d6274d sim_err="operation U3 appears more than once" om_err=d968dbac93d6274d
layerpipe/datapar/8 mut8: codes=[] verify=99d0d07868912123 peak=140 ledger=239fe870eb2465f6 makespan=168 sim=f67c5ca804678faa counter=e3029184773ce6ac om=cbf29ce484222325
layerpipe/datapar/8 mut9: codes=[] verify=99d0d07868912123 peak=140 ledger=239fe870eb2465f6 makespan=168 sim=f67c5ca804678faa counter=e3029184773ce6ac om=cbf29ce484222325
layerpipe/datapar/8 mut10: codes=["OV001"] verify=d4a20962a571c33b ledger_err=0a3aeb7d2542f0ab sim_err="operation F999 is not part of the graph" om_err=0a3aeb7d2542f0ab
twobp/single/8: codes=[] verify=99d0d07868912123 peak=184 ledger=ea6aa7a50b29d927 makespan=133 sim=a54c19ebf91b2a2f counter=169735e734da758c om=cbf29ce484222325
twobp/single/8 mut0: codes=[] verify=99d0d07868912123 peak=184 ledger=ea6aa7a50b29d927 makespan=137 sim=a769a7c81ad3b8e5 counter=169735e734da758c om=cbf29ce484222325
twobp/single/8 mut1: codes=["OV101"] verify=608f8ec8a8458538 ledger_err=cf827f50647f5b79 sim_err="operation U2 scheduled before its dependency dW2" om=dd7efb820638ae0e
twobp/single/8 mut2: codes=["OV101", "OV401"] verify=90197bb4bcd191b6 ledger_err=4dba55594161d440 sim_err="operation F5 scheduled before its dependency U5" om=31ef0dee2951266c
twobp/single/8 mut3: codes=["OV101", "OV401"] verify=417353ef3a2e643a ledger_err=bc94c8f83aef6f70 sim_err="operation dO2 scheduled before its dependency dO3" om=5d8b28768e990bc3
twobp/single/8 mut4: codes=["OV003"] verify=8f703446039574fd peak=199 ledger=841d665fa127a37e makespan=129 sim=1b7834fafd6faadd counter=9925df15884909ca om=2f64a6265490749e
twobp/single/8 mut5: codes=[] verify=99d0d07868912123 peak=184 ledger=ea6aa7a50b29d927 makespan=135 sim=6da3acb0c9805613 counter=169735e734da758c om=cbf29ce484222325
twobp/single/8 mut6: codes=["OV101", "OV401"] verify=55d3a531bf77d90b ledger_err=55fa305ce56b0010 sim_err="operation dO4 scheduled before its dependency dO5" om=2ea6c1b86df203c0
twobp/single/8 mut7: codes=["OV002"] verify=6f362744e3731a7e ledger_err=d968dbac93d6274d sim_err="operation U3 appears more than once" om_err=d968dbac93d6274d
twobp/single/8 mut8: codes=["OV101", "OV401"] verify=5fa1e257b7313541 ledger_err=17e6bf82ceed70ec sim_err="operation F3 scheduled before its dependency U3" om=678ad52f1552b122
twobp/single/8 mut9: codes=["OV101"] verify=cd62e907abe58a21 ledger_err=cf827f50647f5b79 sim_err="operation U2 scheduled before its dependency dW2" om=f46ed13578f06a49
twobp/single/8 mut10: codes=["OV001"] verify=d1150d738b1cd6f9 ledger_err=0a3aeb7d2542f0ab sim_err="operation F999 is not part of the graph" om_err=0a3aeb7d2542f0ab
twobp/datapar/8: codes=[] verify=99d0d07868912123 peak=184 ledger=ea6aa7a50b29d927 makespan=170 sim=59d726d7dcb4591e counter=169735e734da758c om=cbf29ce484222325
twobp/datapar/8 mut0: codes=[] verify=99d0d07868912123 peak=184 ledger=ea6aa7a50b29d927 makespan=218 sim=416562406ce036d3 counter=169735e734da758c om=cbf29ce484222325
twobp/datapar/8 mut1: codes=["OV101"] verify=88b3e3275378ecf5 ledger_err=2fa8e9594ae1629e sim_err="operation U5 scheduled before its dependency S[dW5]" om=3a0368fb2800d811
twobp/datapar/8 mut2: codes=[] verify=99d0d07868912123 peak=184 ledger=ea6aa7a50b29d927 makespan=170 sim=93ec28e744542d45 counter=169735e734da758c om=cbf29ce484222325
twobp/datapar/8 mut3: codes=["OV101"] verify=e723097b82141217 ledger_err=abf097fcb9c0689a sim_err="operation U2 scheduled before its dependency S[dW2]" om=aa242f2bb24a3286
twobp/datapar/8 mut4: codes=["OV003", "OV201"] verify=992c4c97ff99d18b peak=184 ledger=ea6a9fa50b29cb8f makespan=164 sim=24e1365015586302 counter=16973de734da8324 om=cbf29ce484222325
twobp/datapar/8 mut5: codes=["OV101", "OV401"] verify=ed293858537b5287 ledger_err=f0122c4b1648ef82 sim_err="operation U6 scheduled before its dependency S[dW6]" om=31aa670c04e95e51
twobp/datapar/8 mut6: codes=["OV102"] verify=1e032ec921dde69b ledger_err=32ade6086a2bafd0 sim_err="operation S[dW8] scheduled before its dependency dW8" om=6e5a6fb9a6e02451
twobp/datapar/8 mut7: codes=["OV002"] verify=73cdf8823b7f2721 ledger_err=ac8e7e5573db50ba sim_err="operation U8 appears more than once" om_err=ac8e7e5573db50ba
twobp/datapar/8 mut8: codes=[] verify=99d0d07868912123 peak=184 ledger=ea6aa7a50b29d927 makespan=183 sim=306795a76ff15281 counter=169735e734da758c om=cbf29ce484222325
twobp/datapar/8 mut9: codes=["OV101", "OV401"] verify=cdba2f90b461e8e1 ledger_err=5ee77c8f0f602192 sim_err="operation dO7 scheduled before its dependency dO8" om=b64479b8ae652546
twobp/datapar/8 mut10: codes=["OV001"] verify=0e20ef69470d63d4 ledger_err=0a3aeb7d2542f0ab sim_err="operation F999 is not part of the graph" om_err=0a3aeb7d2542f0ab
twobp/pipeline/8: codes=[] verify=99d0d07868912123 peak=152 ledger=d1e5420555414871 makespan=124 sim=ef8b7c3964fcadfe counter=8966478d62cd1067 om=cbf29ce484222325
twobp/pipeline/8 mut0: codes=["OV101"] verify=0bd873f6ca05deff ledger_err=4dba55594161d440 sim_err="operation F5 scheduled before its dependency U5" om=5e6b34e1a936d805
twobp/pipeline/8 mut1: codes=["OV102"] verify=139f4b1384cc207a ledger_err=1bd018bf3c8ec7c5 sim_err="operation dO2 scheduled before its dependency S[dO3]" om=079eee822740f6f8
twobp/pipeline/8 mut2: codes=["OV101"] verify=bfad4a4c6e80abf4 ledger_err=17e6bf82ceed70ec sim_err="operation F3 scheduled before its dependency U3" om=c9c46eb7285b76da
twobp/pipeline/8 mut3: codes=["OV102", "OV401"] verify=f6a0594fbfbe671e ledger_err=1bd018bf3c8ec7c5 sim_err="operation dO2 scheduled before its dependency S[dO3]" om=a62efce9ab1c5102
twobp/pipeline/8 mut4: codes=["OV003"] verify=2fb1e666a5b84162 peak=152 ledger=98d0168bad67ed91 makespan=120 sim=cc89cf52d08b1869 counter=8966478d62cd1067 om=cbf29ce484222325
twobp/pipeline/8 mut5: codes=["OV101", "OV401"] verify=695ba0d8f510939b ledger_err=1bd018bf3c8ec7c5 sim_err="operation dO2 scheduled before its dependency S[dO3]" om=71d9583a10770a9c
twobp/pipeline/8 mut6: codes=[] verify=99d0d07868912123 peak=152 ledger=d1e5420555414871 makespan=123 sim=d4ef4edb7f1836bd counter=8966478d62cd1067 om=cbf29ce484222325
twobp/pipeline/8 mut7: codes=["OV002"] verify=10445042f02107f7 ledger_err=b68e57b8910d2995 sim_err="operation dW1 appears more than once" om_err=b68e57b8910d2995
twobp/pipeline/8 mut8: codes=["OV101", "OV401"] verify=93dafd06107c3671 ledger_err=3f20bc6a0dfa05da sim_err="operation F2 scheduled before its dependency U2" om=5e6b34e1a936d805
twobp/pipeline/8 mut9: codes=["OV102", "OV401"] verify=d561588894a16358 ledger_err=1bd018bf3c8ec7c5 sim_err="operation dO2 scheduled before its dependency S[dO3]" om=6531ad2bc6cca7b9
twobp/pipeline/8 mut10: codes=["OV001"] verify=cfeea20c36f22374 ledger_err=0a3aeb7d2542f0ab sim_err="operation F999 is not part of the graph" om_err=0a3aeb7d2542f0ab
gradinterleaved/single/8: codes=[] verify=99d0d07868912123 peak=140 ledger=bf6bc5352bb7e51d makespan=144 sim=9ac662f4d6abc129 counter=e3029184773ce6ac om=cbf29ce484222325
gradinterleaved/single/8 mut0: codes=["OV101", "OV401"] verify=fd20821910204c35 ledger_err=4dba55594161d440 sim_err="operation F5 scheduled before its dependency U5" om=1f8a69200d164e37
gradinterleaved/single/8 mut1: codes=[] verify=99d0d07868912123 peak=140 ledger=bf6bc5352bb7e51d makespan=144 sim=9f89d0c18006fe3b counter=e3029184773ce6ac om=cbf29ce484222325
gradinterleaved/single/8 mut2: codes=["OV101", "OV401"] verify=ba0c7635cffb14fb ledger_err=c1bb4f4c6a1751c0 sim_err="operation F7 scheduled before its dependency F6" om=cbf29ce484222325
gradinterleaved/single/8 mut3: codes=["OV101"] verify=cd62e907abe58a21 ledger_err=cf827f50647f5b79 sim_err="operation U2 scheduled before its dependency dW2" om=4ff9a9729c977421
gradinterleaved/single/8 mut4: codes=["OV003"] verify=8627304cbad151ae peak=140 ledger=bf6bc5352bb7e51d makespan=139 sim=22e545a4bae4c875 counter=e3029184773ce6ac om=cbf29ce484222325
gradinterleaved/single/8 mut5: codes=["OV101"] verify=463bd9e6c863034f ledger_err=83b65c443b3117df sim_err="operation dW8 scheduled before its dependency Loss" om=fb457d626f3296aa
gradinterleaved/single/8 mut6: codes=["OV101", "OV401"] verify=fb01ffd4e2e3ddd8 ledger_err=d24814a4894629ec sim_err="operation F8 scheduled before its dependency F7" om=cbf29ce484222325
gradinterleaved/single/8 mut7: codes=["OV002"] verify=0611fa96adc3f5e9 ledger_err=06591d2f330af2ae sim_err="operation F5 appears more than once" om_err=06591d2f330af2ae
gradinterleaved/single/8 mut8: codes=["OV101"] verify=a2f7fb3003486458 ledger_err=e4e68493ba384166 sim_err="operation dW1 scheduled before its dependency dO2" om=a342d36dd12ffb3a
gradinterleaved/single/8 mut9: codes=["OV101", "OV401"] verify=3128750121ff44fc ledger_err=92da0c5f9ec65baa sim_err="operation dW3 scheduled before its dependency dO4" om=90d4949718949871
gradinterleaved/single/8 mut10: codes=["OV001"] verify=0e20ef69470d63d4 ledger_err=0a3aeb7d2542f0ab sim_err="operation F999 is not part of the graph" om_err=0a3aeb7d2542f0ab
gradinterleaved/datapar/8: codes=[] verify=99d0d07868912123 peak=140 ledger=bf6bc5352bb7e51d makespan=145 sim=b5cfb49b4753cd2e counter=e3029184773ce6ac om=cbf29ce484222325
gradinterleaved/datapar/8 mut0: codes=["OV101", "OV401"] verify=57eeb58746a027f0 ledger_err=14d05a4f4f34d36c sim_err="operation F6 scheduled before its dependency F5" om=95671cf456736b0f
gradinterleaved/datapar/8 mut1: codes=[] verify=99d0d07868912123 peak=140 ledger=bf6bc5352bb7e51d makespan=145 sim=b5cfb49b4753cd2e counter=e3029184773ce6ac om=cbf29ce484222325
gradinterleaved/datapar/8 mut2: codes=[] verify=99d0d07868912123 peak=140 ledger=bf6bc5352bb7e51d makespan=157 sim=7e87106929b9ca7e counter=e3029184773ce6ac om=cbf29ce484222325
gradinterleaved/datapar/8 mut3: codes=["OV101"] verify=f260cf0811c5263c ledger_err=3f20bc6a0dfa05da sim_err="operation F2 scheduled before its dependency U2" om=29161792c939d969
gradinterleaved/datapar/8 mut4: codes=["OV003"] verify=304865a835c61ca7 peak=140 ledger=fc01c25949775554 makespan=145 sim=38c998f1db339899 counter=fa4760169c7eea6b om=cbf29ce484222325
gradinterleaved/datapar/8 mut5: codes=["OV101", "OV401"] verify=e67e02e13605ee28 ledger_err=3f20bc6a0dfa05da sim_err="operation F2 scheduled before its dependency U2" om=7d897fcd6ea82dbf
gradinterleaved/datapar/8 mut6: codes=["OV101"] verify=84bc6c06899bb1d2 ledger_err=f0122c4b1648ef82 sim_err="operation U6 scheduled before its dependency S[dW6]" om=a4e81cd66ba80413
gradinterleaved/datapar/8 mut7: codes=["OV002"] verify=90d540d1818c1266 ledger_err=c2c45057b74bc7e9 sim_err="operation S[dW4] appears more than once" om_err=c2c45057b74bc7e9
gradinterleaved/datapar/8 mut8: codes=[] verify=99d0d07868912123 peak=140 ledger=bf6bc5352bb7e51d makespan=167 sim=4c0d97f81fa66864 counter=e3029184773ce6ac om=cbf29ce484222325
gradinterleaved/datapar/8 mut9: codes=["OV102"] verify=94471d1564e4c619 ledger_err=b3f898c565cb8efe sim_err="operation U1 scheduled before its dependency S[dW1]" om=5fb2fe41c1afffa1
gradinterleaved/datapar/8 mut10: codes=["OV001"] verify=0e20ef69470d63d4 ledger_err=0a3aeb7d2542f0ab sim_err="operation F999 is not part of the graph" om_err=0a3aeb7d2542f0ab
"#;

const ZOO26: &str = r#"
conventional/single/26: codes=[] verify=99d0d07868912123 peak=396 ledger=94565e68baf537c0 makespan=476 sim=7a94505c3b497a4f counter=6e249bb90ee1a6de om=cbf29ce484222325
conventional/single/26 mut0: codes=["OV101", "OV401"] verify=4f701cda20c4772b ledger_err=95c0ef79fef28918 sim_err="operation dW2 scheduled before its dependency dO3" om=de5852e04e415e84
conventional/single/26 mut1: codes=["OV101", "OV401"] verify=c7b46db386073cd6 ledger_err=14fc6b4f4f5a2b3a sim_err="operation F6 scheduled before its dependency U6" om=cbf29ce484222325
conventional/single/26 mut2: codes=["OV101", "OV401"] verify=d0af2b3f26b2d110 ledger_err=63acb61de5744d31 sim_err="operation U8 scheduled before its dependency dW8" om=b1d92fb44859abd4
conventional/single/26 mut3: codes=["OV101", "OV401"] verify=e5d75c5cc21848f2 ledger_err=ef8a822536c4cb00 sim_err="operation F9 scheduled before its dependency F8" om=cbf29ce484222325
conventional/datapar/26: codes=[] verify=99d0d07868912123 peak=396 ledger=94565e68baf537c0 makespan=714 sim=d8c5299b04ae1953 counter=6e249bb90ee1a6de om=cbf29ce484222325
conventional/datapar/26 mut0: codes=["OV101", "OV401"] verify=997e883e189fdcda ledger_err=a288a1fc636335d2 sim_err="operation F18 scheduled before its dependency F17" om=bd576dc852343225
conventional/datapar/26 mut1: codes=[] verify=99d0d07868912123 peak=396 ledger=94565e68baf537c0 makespan=700 sim=5259029f2a7b662d counter=6e249bb90ee1a6de om=cbf29ce484222325
conventional/datapar/26 mut2: codes=["OV102"] verify=0e66d983d0bd091d ledger_err=d15f370aa7cc2ebe sim_err="operation U13 scheduled before its dependency S[dW13]" om=b2bc4e6c7e7d3930
conventional/datapar/26 mut3: codes=["OV102"] verify=bf847a092f4d316e ledger_err=7cd2c7018ae6deec sim_err="operation U16 scheduled before its dependency S[dW16]" om=813fe6f3d890c385
conventional/pipeline/26: codes=[] verify=99d0d07868912123 peak=396 ledger=94565e68baf537c0 makespan=461 sim=0c043c49a93f1c2a counter=6e249bb90ee1a6de om=cbf29ce484222325
conventional/pipeline/26 mut0: codes=["OV101", "OV401"] verify=bfc2bd5aed9b4d4a ledger_err=ede03b3db25f20ef sim_err="operation dO7 scheduled before its dependency S[dO8]" om=9e8b1610bd7ea19c
conventional/pipeline/26 mut1: codes=["OV102", "OV401"] verify=61fa32f77f14ab73 ledger_err=ede03b3db25f20ef sim_err="operation dO7 scheduled before its dependency S[dO8]" om=5df68acc9c489b4f
conventional/pipeline/26 mut2: codes=[] verify=99d0d07868912123 peak=396 ledger=94565e68baf537c0 makespan=465 sim=0e8cad9f51766539 counter=6e249bb90ee1a6de om=cbf29ce484222325
conventional/pipeline/26 mut3: codes=["OV102", "OV401"] verify=8274773af63cb124 ledger_err=d23e063125f7eb6e sim_err="operation F12 scheduled before its dependency F11" om=051ef00e176dddcd
fastforward/single/26: codes=[] verify=99d0d07868912123 peak=402 ledger=ff863a75471786b3 makespan=333 sim=8d3b9f9b2cf16e69 counter=e1b6e038a9cfd8ee om=cbf29ce484222325
fastforward/single/26 mut0: codes=["OV101", "OV401"] verify=e0735b2efa098ceb ledger_err=0e66edfc0f3c543e sim_err="operation F18 scheduled before its dependency U18" om=621fe2e11c589b47
fastforward/single/26 mut1: codes=["OV101"] verify=7e3f7276f3a7b43b ledger_err=26d527a1710352d8 sim_err="operation dO6 scheduled before its dependency dO7" om=57a36c60bfbb07e1
fastforward/single/26 mut2: codes=[] verify=99d0d07868912123 peak=544 ledger=12d4a8f5d9284c1a makespan=398 sim=8ad8d23d57bced4a counter=7ed1da4c9e8a5e4b om=cbf29ce484222325
fastforward/single/26 mut3: codes=[] verify=99d0d07868912123 peak=402 ledger=ff863a75471786b3 makespan=333 sim=d86c0b81d4f7bf18 counter=e1b6e038a9cfd8ee om=cbf29ce484222325
fastforward/datapar/26: codes=[] verify=99d0d07868912123 peak=402 ledger=ff863a75471786b3 makespan=363 sim=001e97b008ddb794 counter=e1b6e038a9cfd8ee om=cbf29ce484222325
fastforward/datapar/26 mut0: codes=["OV101", "OV401"] verify=71c5961154e09198 ledger_err=caca73baa8940711 sim_err="operation F10 scheduled before its dependency F9" om=621fe2e11c589b47
fastforward/datapar/26 mut1: codes=[] verify=99d0d07868912123 peak=402 ledger=ff863a75471786b3 makespan=364 sim=323d8f888b26e1a3 counter=e1b6e038a9cfd8ee om=cbf29ce484222325
fastforward/datapar/26 mut2: codes=[] verify=99d0d07868912123 peak=402 ledger=ff863a75471786b3 makespan=363 sim=ce4b001cd3577f08 counter=e1b6e038a9cfd8ee om=cbf29ce484222325
fastforward/datapar/26 mut3: codes=["OV101"] verify=6ba8c6d40b86ad4a ledger_err=7cd2c7018ae6deec sim_err="operation U16 scheduled before its dependency S[dW16]" om=621fe2e11c589b47
fastforward/pipeline/26: codes=[] verify=99d0d07868912123 peak=441 ledger=d21211f1991e4222 makespan=417 sim=d6a6ddd74c1cd511 counter=6e1bf517e8e2f78f om=cbf29ce484222325
fastforward/pipeline/26 mut0: codes=["OV101"] verify=350d4e6e00da0c2d ledger_err=63acb61de5744d31 sim_err="operation U8 scheduled before its dependency dW8" om=0b957ee9ac615029
fastforward/pipeline/26 mut1: codes=["OV102", "OV401"] verify=9c4d0da569b04cb2 ledger_err=ede03b3db25f20ef sim_err="operation dO7 scheduled before its dependency S[dO8]" om=02efc866eab5f585
fastforward/pipeline/26 mut2: codes=[] verify=99d0d07868912123 peak=441 ledger=d21211f1991e4222 makespan=417 sim=d6a6ddd74c1cd511 counter=6e1bf517e8e2f78f om=cbf29ce484222325
fastforward/pipeline/26 mut3: codes=["OV102", "OV401"] verify=7a469ddda3eb21af ledger_err=ede03b3db25f20ef sim_err="operation dO7 scheduled before its dependency S[dO8]" om=d992f209c24681de
multiregion/single/26: codes=[] verify=99d0d07868912123 peak=402 ledger=63774b0151550515 makespan=184 sim=2dfca9e71c236e33 counter=617987462c0de54c om=cbf29ce484222325
multiregion/single/26 mut0: codes=["OV101", "OV401"] verify=06fc7b3e1ae6b35f ledger_err=5ee77c8f0f602192 sim_err="operation dO7 scheduled before its dependency dO8" om=9f5731bb498278ed
multiregion/single/26 mut1: codes=[] verify=99d0d07868912123 peak=402 ledger=63774b0151550515 makespan=184 sim=f012e4e6d22df38d counter=617987462c0de54c om=cbf29ce484222325
multiregion/single/26 mut2: codes=[] verify=99d0d07868912123 peak=525 ledger=6b52e1da2b08857d makespan=294 sim=669c54120d777464 counter=80b012870d01d400 om=cbf29ce484222325
multiregion/single/26 mut3: codes=["OV101", "OV401"] verify=06abf2f32fee4871 ledger_err=55fa305ce56b0010 sim_err="operation dO4 scheduled before its dependency dO5" om=219f1f39ebcb6446
reversek/datapar/26: codes=[] verify=99d0d07868912123 peak=396 ledger=76936e1e6b4cf547 makespan=499 sim=539b59a156c1c2b8 counter=6e249bb90ee1a6de om=cbf29ce484222325
reversek/datapar/26 mut0: codes=[] verify=99d0d07868912123 peak=396 ledger=76936e1e6b4cf547 makespan=610 sim=c6fd0aa563166d97 counter=6e249bb90ee1a6de om=cbf29ce484222325
reversek/datapar/26 mut1: codes=["OV101"] verify=1f7ec261e7ed4a3a ledger_err=e0555e1cf6eb03e6 sim_err="operation U8 scheduled before its dependency S[dW8]" om=c15ea3cef40b3046
reversek/datapar/26 mut2: codes=[] verify=99d0d07868912123 peak=396 ledger=76936e1e6b4cf547 makespan=497 sim=a826ec048f0ab55a counter=6e249bb90ee1a6de om=cbf29ce484222325
reversek/datapar/26 mut3: codes=[] verify=99d0d07868912123 peak=396 ledger=76936e1e6b4cf547 makespan=509 sim=bd0ef48394ba4dae counter=6e249bb90ee1a6de om=cbf29ce484222325
ooopipe2/pipeline/26: codes=[] verify=99d0d07868912123 peak=560 ledger=26e02c08354ebe7b makespan=400 sim=ad24143e7e6e5931 counter=06ec663b41689ef5 om=cbf29ce484222325
ooopipe2/pipeline/26 mut0: codes=["OV102", "OV401"] verify=21e569bdb018a5e7 ledger_err=6f3142bec1324421 sim_err="operation dO21 scheduled before its dependency S[dO22]" om=c99277c903f3ba11
ooopipe2/pipeline/26 mut1: codes=[] verify=99d0d07868912123 peak=560 ledger=26e02c08354ebe7b makespan=400 sim=ff8c4a0e3dcce0dd counter=06ec663b41689ef5 om=cbf29ce484222325
ooopipe2/pipeline/26 mut2: codes=[] verify=99d0d07868912123 peak=531 ledger=5df57e6d77df5913 makespan=400 sim=a5d8bfb5743b1019 counter=1a6c555583648fbb om=cbf29ce484222325
ooopipe2/pipeline/26 mut3: codes=[] verify=99d0d07868912123 peak=546 ledger=58974ac361e8b0aa makespan=400 sim=1fe26cec5a6b9c0f counter=90c8304ca8e56011 om=cbf29ce484222325
layerpipe/single/26: codes=[] verify=99d0d07868912123 peak=396 ledger=163d1e1356ff6ab4 makespan=303 sim=eb258f9ae2f3b537 counter=6e249bb90ee1a6de om=cbf29ce484222325
layerpipe/single/26 mut0: codes=["OV101"] verify=23953da2439db4fb ledger_err=9065ef042bc32668 sim_err="operation F1 scheduled before its dependency U1" om=7716c78c40d073b0
layerpipe/single/26 mut1: codes=["OV101"] verify=7353eccfb23fe418 ledger_err=9065ef042bc32668 sim_err="operation F1 scheduled before its dependency U1" om=14d4974df95933ae
layerpipe/single/26 mut2: codes=["OV101", "OV401"] verify=4583868021875301 ledger_err=6b212b4e823b6ce6 sim_err="operation F16 scheduled before its dependency U16" om=eebeba79eb942b93
layerpipe/single/26 mut3: codes=[] verify=99d0d07868912123 peak=413 ledger=231d3c4a5489c9cd makespan=420 sim=f253c4e19d928a2d counter=6b3ff541843825b0 om=cbf29ce484222325
layerpipe/datapar/26: codes=[] verify=99d0d07868912123 peak=396 ledger=a8d954fc563309e2 makespan=539 sim=3301807bf2e22f39 counter=6e249bb90ee1a6de om=cbf29ce484222325
layerpipe/datapar/26 mut0: codes=["OV102"] verify=c1517df9d43c9d1b ledger_err=9065ef042bc32668 sim_err="operation F1 scheduled before its dependency U1" om=5a916b28cec30167
layerpipe/datapar/26 mut1: codes=[] verify=99d0d07868912123 peak=396 ledger=a8d954fc563309e2 makespan=531 sim=da6719778ff19641 counter=6e249bb90ee1a6de om=cbf29ce484222325
layerpipe/datapar/26 mut2: codes=["OV101", "OV401"] verify=8c83d0ffbf938bb1 ledger_err=765e7e3182cd7566 sim_err="operation F12 scheduled before its dependency U12" om=2e05adbc5bee8b6c
layerpipe/datapar/26 mut3: codes=[] verify=99d0d07868912123 peak=396 ledger=a8d954fc563309e2 makespan=539 sim=3301807bf2e22f39 counter=6e249bb90ee1a6de om=cbf29ce484222325
twobp/single/26: codes=[] verify=99d0d07868912123 peak=571 ledger=3005032f0e33c71d makespan=438 sim=7966d2be92348308 counter=595b953252336bbf om=cbf29ce484222325
twobp/single/26 mut0: codes=[] verify=99d0d07868912123 peak=571 ledger=3005032f0e33c71d makespan=438 sim=05741b6b9c979d79 counter=595b953252336bbf om=cbf29ce484222325
twobp/single/26 mut1: codes=[] verify=99d0d07868912123 peak=571 ledger=3005032f0e33c71d makespan=434 sim=2e4a406e879d43a7 counter=595b953252336bbf om=cbf29ce484222325
twobp/single/26 mut2: codes=[] verify=99d0d07868912123 peak=571 ledger=3005032f0e33c71d makespan=438 sim=82bef15b55d34795 counter=595b953252336bbf om=cbf29ce484222325
twobp/single/26 mut3: codes=["OV101"] verify=3881b8f33fd8893c ledger_err=92da0c5f9ec65baa sim_err="operation dW3 scheduled before its dependency dO4" om=7a79de26c7051942
twobp/datapar/26: codes=[] verify=99d0d07868912123 peak=571 ledger=3005032f0e33c71d makespan=540 sim=9e28e5b652338b2e counter=595b953252336bbf om=cbf29ce484222325
twobp/datapar/26 mut0: codes=[] verify=99d0d07868912123 peak=571 ledger=3005032f0e33c71d makespan=540 sim=c381d501be2d9bda counter=595b953252336bbf om=cbf29ce484222325
twobp/datapar/26 mut1: codes=["OV101"] verify=81165a54c77b1094 ledger_err=9065ef042bc32668 sim_err="operation F1 scheduled before its dependency U1" om=07fb0e297296862a
twobp/datapar/26 mut2: codes=[] verify=99d0d07868912123 peak=571 ledger=3005032f0e33c71d makespan=540 sim=484d17723c691f7e counter=595b953252336bbf om=cbf29ce484222325
twobp/datapar/26 mut3: codes=["OV101", "OV401"] verify=9512aad66c0a54f9 ledger_err=d2f7af7bb576b4ba sim_err="operation dO10 scheduled before its dependency dO11" om=1f1adf1f512753bd
twobp/pipeline/26: codes=[] verify=99d0d07868912123 peak=436 ledger=dc74d46814d43670 makespan=421 sim=744bff11f5990e93 counter=87b21850fa03b1b5 om=cbf29ce484222325
twobp/pipeline/26 mut0: codes=["OV101", "OV401"] verify=2742a1f102dd9d68 ledger_err=17e6bf82ceed70ec sim_err="operation F3 scheduled before its dependency U3" om=808f7713741ed7b9
twobp/pipeline/26 mut1: codes=[] verify=99d0d07868912123 peak=436 ledger=dc74d46814d43670 makespan=421 sim=89fa8a6261fdee84 counter=87b21850fa03b1b5 om=cbf29ce484222325
twobp/pipeline/26 mut2: codes=[] verify=99d0d07868912123 peak=435 ledger=fd2e8794dd626e9f makespan=421 sim=c5015f0bf9b67083 counter=6e58a750ebd61704 om=cbf29ce484222325
twobp/pipeline/26 mut3: codes=[] verify=99d0d07868912123 peak=436 ledger=dc74d46814d43670 makespan=421 sim=ce9e5bc9daaaae1e counter=87b21850fa03b1b5 om=cbf29ce484222325
gradinterleaved/single/26: codes=[] verify=99d0d07868912123 peak=396 ledger=76936e1e6b4cf547 makespan=476 sim=8662a8ed2deb8939 counter=6e249bb90ee1a6de om=cbf29ce484222325
gradinterleaved/single/26 mut0: codes=["OV101", "OV401"] verify=4eba535e6a20c87c ledger_err=91c78c17198f2491 sim_err="operation U9 scheduled before its dependency dW9" om=02413e8b3d0cca1f
gradinterleaved/single/26 mut1: codes=["OV101", "OV401"] verify=8a1ddf8400231842 ledger_err=0334424a35507ef4 sim_err="operation F25 scheduled before its dependency F24" om=cbf29ce484222325
gradinterleaved/single/26 mut2: codes=["OV101", "OV401"] verify=71542364ede0514f ledger_err=cd9527188cc69e0e sim_err="operation F14 scheduled before its dependency U14" om=295b112982a27ec3
gradinterleaved/single/26 mut3: codes=["OV101", "OV401"] verify=fa598e379ff2dd54 ledger_err=f0baaf8448f54b5c sim_err="operation dW23 scheduled before its dependency dO24" om=34dc88c7765c013c
gradinterleaved/datapar/26: codes=[] verify=99d0d07868912123 peak=396 ledger=76936e1e6b4cf547 makespan=476 sim=baeb32df506572e1 counter=6e249bb90ee1a6de om=cbf29ce484222325
gradinterleaved/datapar/26 mut0: codes=[] verify=99d0d07868912123 peak=396 ledger=76936e1e6b4cf547 makespan=564 sim=f24247f97c6e4e78 counter=6e249bb90ee1a6de om=cbf29ce484222325
gradinterleaved/datapar/26 mut1: codes=["OV101", "OV401"] verify=896e1fb5d493b081 ledger_err=cd9527188cc69e0e sim_err="operation F14 scheduled before its dependency U14" om=b3aa157183d0e111
gradinterleaved/datapar/26 mut2: codes=[] verify=99d0d07868912123 peak=396 ledger=76936e1e6b4cf547 makespan=476 sim=288e1f7e6de0cfee counter=6e249bb90ee1a6de om=cbf29ce484222325
gradinterleaved/datapar/26 mut3: codes=[] verify=99d0d07868912123 peak=396 ledger=76936e1e6b4cf547 makespan=472 sim=3850c03267920ff2 counter=6e249bb90ee1a6de om=cbf29ce484222325
"#;

const OP_LEVEL: &str = r#"
op-level gpipe/128x8: codes=[] verify=99d0d07868912123 peak=1814 ledger=77b4c1ab5594da03 makespan=2323 sim=ebed8789d140b5e3 counter=02d4eca386db01ac
op-level gpipe/128x8 mut0: codes=["OV102"] verify=6b46e6550af650c1 ledger_err=dce0d014663108df sim_err="operation dO16 scheduled before its dependency S[dO17]"
op-level gpipe/128x8 mut1: codes=["OV101", "OV401"] verify=b4a3f475da7c1184 ledger_err=dce0d014663108df sim_err="operation dO16 scheduled before its dependency S[dO17]"
op-level gpipe/128x8 mut2: codes=["OV101", "OV401"] verify=c2c59fae4f6d5bd9 ledger_err=dce0d014663108df sim_err="operation dO16 scheduled before its dependency S[dO17]"
op-level gpipe/128x8 mut3: codes=[] verify=99d0d07868912123 peak=1814 ledger=77b4c1ab5594da03 makespan=2323 sim=9cbbfc044f6d78da counter=02d4eca386db01ac
op-level gpipe/128x8 mut4: codes=["OV003"] verify=3480410a4f933a64 peak=1814 ledger=77b4c1ab5594da03 makespan=2323 sim=0264e7135bccd7a6 counter=02d4eca386db01ac
op-level gpipe/128x8 mut5: codes=["OV101", "OV401"] verify=5fb57ef800c98ece ledger_err=9065ef042bc32668 sim_err="operation F1 scheduled before its dependency U1"
op-level pipe2/128x8: codes=[] verify=99d0d07868912123 peak=2669 ledger=d6644dae29a8f4bc makespan=1958 sim=ad806e8c8ab7b7ca counter=cf0fa8336caeb859
op-level pipe2/128x8 mut0: codes=["OV101"] verify=cc6656bf30cd5369 ledger_err=e6784bc72d4f08d4 sim_err="operation F17 scheduled before its dependency F16"
op-level pipe2/128x8 mut1: codes=[] verify=99d0d07868912123 peak=2667 ledger=778054aaa9d652c7 makespan=1958 sim=51c0ce453ed2174a counter=54697e3326d28257
op-level pipe2/128x8 mut2: codes=["OV101", "OV401"] verify=326f9d1b4ab9e990 ledger_err=e6784bc72d4f08d4 sim_err="operation F17 scheduled before its dependency F16"
op-level pipe2/128x8 mut3: codes=["OV102"] verify=ce245cc0dbfee90e ledger_err=abd3c283f4d2c043 sim_err="operation dW58 scheduled before its dependency S[dO59]"
op-level pipe2/128x8 mut4: codes=["OV003", "OV201"] verify=fbe763fe1c44e55c peak=2669 ledger=b1507b3d1634d292 makespan=1943 sim=be4cec83b609b8fd counter=cf0fa8336caeb859
op-level pipe2/128x8 mut5: codes=["OV101"] verify=e7a008226bbacda5 ledger_err=9065ef042bc32668 sim_err="operation F1 scheduled before its dependency U1"
"#;

#[test]
fn zoo_checks_at_3_layers_are_pinned() {
    assert_lines(&zoo_lines(&cost(3), 5), ZOO3);
}

#[test]
fn zoo_checks_at_8_layers_are_pinned() {
    let got = zoo_lines(&cost(8), 11);
    let codes = drawn(&got);
    for code in [
        "OV001", "OV002", "OV003", "OV101", "OV102", "OV201", "OV401",
    ] {
        assert!(codes.contains(code), "no mutant drew {code}: {codes:?}");
    }
    assert!(
        got.iter()
            .any(|l| l.contains("sim_err=\"operation") && l.contains("before its dependency")),
        "no mutant deadlocks the simulator"
    );
    assert_lines(&got, ZOO8);
}

#[test]
fn zoo_checks_at_26_layers_are_pinned() {
    assert_lines(&zoo_lines(&cost(26), 4), ZOO26);
}

const FREE_OPS: &str = r#"
conventional/single/9: codes=[] verify=99d0d07868912123 peak=161 ledger=15add56885179f55 makespan=104 sim=bd9a122a94088340 counter=b639a9496bf9b45e om=cbf29ce484222325
conventional/single/9 mut0: codes=["OV101"] verify=7006d10950162c3f ledger_err=63acb61de5744d31 sim_err="operation U8 scheduled before its dependency dW8" om=27e70b26623f1e23
conventional/single/9 mut1: codes=["OV101", "OV401"] verify=bca28873021a6999 ledger_err=26d527a1710352d8 sim_err="operation dO6 scheduled before its dependency dO7" om=471e541ff5a0282d
conventional/single/9 mut2: codes=["OV101"] verify=46891e7f2d020de5 ledger_err=b206744f445d5319 sim_err="operation U4 scheduled before its dependency dW4" om=ddfe041705b988e4
conventional/datapar/9: codes=[] verify=99d0d07868912123 peak=161 ledger=15add56885179f55 makespan=163 sim=e3c0fa1769af3047 counter=b639a9496bf9b45e om=cbf29ce484222325
conventional/datapar/9 mut0: codes=["OV102"] verify=d2cff085067ff1a0 ledger_err=b3f898c565cb8efe sim_err="operation U1 scheduled before its dependency S[dW1]" om=2c5ea24d396207d6
conventional/datapar/9 mut1: codes=["OV101", "OV401"] verify=690ecbf6bc7af08c ledger_err=8ce0a96e0ab7f382 sim_err="operation dO3 scheduled before its dependency dO4" om=b39c469ec5b752d0
conventional/datapar/9 mut2: codes=["OV102"] verify=7406f3742d2fe2be ledger_err=22464611cf1b110a sim_err="operation U3 scheduled before its dependency S[dW3]" om=8ab5586531ef8a44
conventional/pipeline/9: codes=[] verify=99d0d07868912123 peak=161 ledger=15add56885179f55 makespan=101 sim=062bd0f5397cd423 counter=b639a9496bf9b45e om=cbf29ce484222325
conventional/pipeline/9 mut0: codes=["OV102", "OV401"] verify=352ceb5bd0b64063 ledger_err=78aa9a1971da9c67 sim_err="operation dO3 scheduled before its dependency S[dO4]" om=8ac6b75524947d39
conventional/pipeline/9 mut1: codes=["OV102", "OV401"] verify=f1bed447be2b9990 ledger_err=78aa9a1971da9c67 sim_err="operation dO3 scheduled before its dependency S[dO4]" om=4718e2b4855a808b
conventional/pipeline/9 mut2: codes=["OV101", "OV401"] verify=a6b6620dbe4607c4 ledger_err=78aa9a1971da9c67 sim_err="operation dO3 scheduled before its dependency S[dO4]" om=b28104495232211b
fastforward/single/9: codes=[] verify=99d0d07868912123 peak=172 ledger=10ef9edd9cf3b260 makespan=71 sim=ae6f0095fb17921d counter=1a9f2e40871f82ee om=cbf29ce484222325
fastforward/single/9 mut0: codes=[] verify=99d0d07868912123 peak=172 ledger=10ef9edd9cf3b260 makespan=78 sim=ccf05b87f4d55ae6 counter=1a9f2e40871f82ee om=cbf29ce484222325
fastforward/single/9 mut1: codes=[] verify=99d0d07868912123 peak=196 ledger=d7de407f55e0badd makespan=84 sim=6970398659f5f52e counter=9368fdecfff86cac om=cbf29ce484222325
fastforward/single/9 mut2: codes=[] verify=99d0d07868912123 peak=180 ledger=af2ccd3049dbf53b makespan=76 sim=336f79677600d061 counter=7e756bf6123df40f om=cbf29ce484222325
fastforward/datapar/9: codes=[] verify=99d0d07868912123 peak=172 ledger=10ef9edd9cf3b260 makespan=91 sim=c90273c907c69d33 counter=1a9f2e40871f82ee om=cbf29ce484222325
fastforward/datapar/9 mut0: codes=[] verify=99d0d07868912123 peak=172 ledger=10ef9edd9cf3b260 makespan=118 sim=1243febda88c317e counter=1a9f2e40871f82ee om=cbf29ce484222325
fastforward/datapar/9 mut1: codes=["OV101"] verify=4397c94f8c861fd5 ledger_err=f81a26b2fef881ae sim_err="operation U9 scheduled before its dependency S[dW9]" om=5218434fca0ee687
fastforward/datapar/9 mut2: codes=[] verify=99d0d07868912123 peak=172 ledger=10ef9edd9cf3b260 makespan=103 sim=96bc571a9bb17088 counter=1a9f2e40871f82ee om=cbf29ce484222325
fastforward/pipeline/9: codes=[] verify=99d0d07868912123 peak=154 ledger=4604e89ab53dc7e4 makespan=90 sim=9acaf2d297de3e6d counter=41bf5c500389edf6 om=cbf29ce484222325
fastforward/pipeline/9 mut0: codes=["OV102", "OV401"] verify=44c15e33521bf404 ledger_err=78aa9a1971da9c67 sim_err="operation dO3 scheduled before its dependency S[dO4]" om=8772301ac6e83120
fastforward/pipeline/9 mut1: codes=["OV101"] verify=851299cc1e42a485 ledger_err=b206744f445d5319 sim_err="operation U4 scheduled before its dependency dW4" om=27611b77a66ba709
fastforward/pipeline/9 mut2: codes=["OV102", "OV401"] verify=4ed21302e6734a05 ledger_err=78aa9a1971da9c67 sim_err="operation dO3 scheduled before its dependency S[dO4]" om=1f4860f3d6f28aa9
multiregion/single/9: codes=[] verify=99d0d07868912123 peak=172 ledger=a70c1091a4088373 makespan=44 sim=dd6efbf6c40d61f6 counter=e56a95659fbac0a1 om=cbf29ce484222325
multiregion/single/9 mut0: codes=[] verify=99d0d07868912123 peak=202 ledger=e8d275af6bdb5d1d makespan=70 sim=e358f7ee69e205b0 counter=acc8a1a722a9d7c7 om=cbf29ce484222325
multiregion/single/9 mut1: codes=["OV101", "OV401"] verify=fae75151c63b51fa ledger_err=9102f63ee339d3c6 sim_err="operation dO9 scheduled before its dependency Loss" om=4a3112a2536d6103
multiregion/single/9 mut2: codes=[] verify=99d0d07868912123 peak=172 ledger=a70c1091a4088373 makespan=44 sim=e531e1b93ef28a1e counter=e56a95659fbac0a1 om=cbf29ce484222325
reversek/datapar/9: codes=[] verify=99d0d07868912123 peak=166 ledger=14da45a578380fd9 makespan=118 sim=27a5d84047f1a483 counter=8aea62495371f167 om=cbf29ce484222325
reversek/datapar/9 mut0: codes=[] verify=99d0d07868912123 peak=166 ledger=14da45a578380fd9 makespan=118 sim=84350ed067c4fc41 counter=8aea62495371f167 om=cbf29ce484222325
reversek/datapar/9 mut1: codes=["OV101"] verify=6147b711d4b93151 ledger_err=b3f898c565cb8efe sim_err="operation U1 scheduled before its dependency S[dW1]" om=5d635ff72b7c7696
reversek/datapar/9 mut2: codes=[] verify=99d0d07868912123 peak=166 ledger=14da45a578380fd9 makespan=124 sim=7e8d34c4d467f963 counter=8aea62495371f167 om=cbf29ce484222325
ooopipe2/pipeline/9: codes=[] verify=99d0d07868912123 peak=179 ledger=692b3f9bfff313b0 makespan=89 sim=18861bebccc80fcc counter=5499bb40a735cb33 om=cbf29ce484222325
ooopipe2/pipeline/9 mut0: codes=["OV101", "OV401"] verify=19bb71d44743517d ledger_err=4d79e459412b3048 sim_err="operation F5 scheduled before its dependency F4" om=f4c2d459418ee72d
ooopipe2/pipeline/9 mut1: codes=["OV102", "OV401"] verify=6ac2745f8a99dc66 ledger_err=bfb1453a7301ffc0 sim_err="operation S[dO8] scheduled before its dependency dO8" om=9423dbf29be475f2
ooopipe2/pipeline/9 mut2: codes=["OV101", "OV401"] verify=78eb013ca19909c9 ledger_err=4d79e459412b3048 sim_err="operation F5 scheduled before its dependency F4" om=7739dcdf3d9cf15b
layerpipe/single/9: codes=[] verify=99d0d07868912123 peak=172 ledger=10ef9edd9cf3b260 makespan=71 sim=06ca8fba9cf27157 counter=1a9f2e40871f82ee om=cbf29ce484222325
layerpipe/single/9 mut0: codes=["OV101", "OV401"] verify=3ad8cd58b56cdbab ledger_err=14d05a4f4f34d36c sim_err="operation F6 scheduled before its dependency F5" om=58bcb783e9283ac6
layerpipe/single/9 mut1: codes=[] verify=99d0d07868912123 peak=185 ledger=47ae3ecfbff9bbae makespan=104 sim=e302a0180d5576a1 counter=97b36cf6205408b8 om=cbf29ce484222325
layerpipe/single/9 mut2: codes=["OV101"] verify=7ad18cf9116ba9c9 ledger_err=9065ef042bc32668 sim_err="operation F1 scheduled before its dependency U1" om=e92550b7780fabb2
layerpipe/datapar/9: codes=[] verify=99d0d07868912123 peak=172 ledger=10ef9edd9cf3b260 makespan=126 sim=db86145147b4a9b3 counter=1a9f2e40871f82ee om=cbf29ce484222325
layerpipe/datapar/9 mut0: codes=["OV102"] verify=07b9692f9788982a ledger_err=9065ef042bc32668 sim_err="operation F1 scheduled before its dependency U1" om=76bb8324d64a6394
layerpipe/datapar/9 mut1: codes=["OV101"] verify=653b7b2b466576ed ledger_err=9065ef042bc32668 sim_err="operation F1 scheduled before its dependency U1" om=b96d957f98afe75f
layerpipe/datapar/9 mut2: codes=[] verify=99d0d07868912123 peak=182 ledger=2812f67e51cb7532 makespan=138 sim=7c96d39814b29f51 counter=906b41f61c981c55 om=cbf29ce484222325
twobp/single/9: codes=[] verify=99d0d07868912123 peak=202 ledger=9b0fa39356faf7ca makespan=96 sim=1fa6ef7520c27738 counter=4f0a1a6cc47f5bc4 om=cbf29ce484222325
twobp/single/9 mut0: codes=["OV101", "OV401"] verify=d40e7be0b6a4ea4c ledger_err=efcb832536fc63a8 sim_err="operation F9 scheduled before its dependency U9" om=822b38b4aa754008
twobp/single/9 mut1: codes=[] verify=99d0d07868912123 peak=202 ledger=9b0fa39356faf7ca makespan=98 sim=e3b2e861216d56e7 counter=4f0a1a6cc47f5bc4 om=cbf29ce484222325
twobp/single/9 mut2: codes=[] verify=99d0d07868912123 peak=202 ledger=9b0fa39356faf7ca makespan=101 sim=b6ab159f04859c29 counter=4f0a1a6cc47f5bc4 om=cbf29ce484222325
twobp/datapar/9: codes=[] verify=99d0d07868912123 peak=202 ledger=9b0fa39356faf7ca makespan=129 sim=679ba4b8989ab6a2 counter=4f0a1a6cc47f5bc4 om=cbf29ce484222325
twobp/datapar/9 mut0: codes=[] verify=99d0d07868912123 peak=202 ledger=9b0fa39356faf7ca makespan=140 sim=ade4e4c20e8abe47 counter=4f0a1a6cc47f5bc4 om=cbf29ce484222325
twobp/datapar/9 mut1: codes=[] verify=99d0d07868912123 peak=202 ledger=9b0fa39356faf7ca makespan=133 sim=d201f93e6202b142 counter=4f0a1a6cc47f5bc4 om=cbf29ce484222325
twobp/datapar/9 mut2: codes=[] verify=99d0d07868912123 peak=202 ledger=9b0fa39356faf7ca makespan=140 sim=f2b5b95117d712f1 counter=4f0a1a6cc47f5bc4 om=cbf29ce484222325
twobp/pipeline/9: codes=[] verify=99d0d07868912123 peak=158 ledger=e56b659218592049 makespan=94 sim=cd038f12820ee171 counter=d90f084fc807e03a om=cbf29ce484222325
twobp/pipeline/9 mut0: codes=["OV102", "OV401"] verify=0774cd646dc3fcce ledger_err=78aa9a1971da9c67 sim_err="operation dO3 scheduled before its dependency S[dO4]" om=c4a1d7d5bc995bf8
twobp/pipeline/9 mut1: codes=["OV101"] verify=0c8c55c52f81d736 ledger_err=78aa9a1971da9c67 sim_err="operation dO3 scheduled before its dependency S[dO4]" om=2a93e7ca63939493
twobp/pipeline/9 mut2: codes=["OV101"] verify=af46edef8b455568 ledger_err=b8cdc09edf63c19a sim_err="operation F4 scheduled before its dependency U4" om=c4a1d7d5bc995bf8
gradinterleaved/single/9: codes=[] verify=99d0d07868912123 peak=166 ledger=14da45a578380fd9 makespan=104 sim=f2a8739b5db9b20c counter=8aea62495371f167 om=6c826f82f899df31
gradinterleaved/single/9 mut0: codes=["OV101", "OV401"] verify=4e28aad4ff6c9aab ledger_err=d24814a4894629ec sim_err="operation F8 scheduled before its dependency F7" om=cbf29ce484222325
gradinterleaved/single/9 mut1: codes=["OV101", "OV401"] verify=fb01ffd4e2e3ddd8 ledger_err=d24814a4894629ec sim_err="operation F8 scheduled before its dependency F7" om=cbf29ce484222325
gradinterleaved/single/9 mut2: codes=["OV101", "OV401"] verify=256e99ebf8256269 ledger_err=14fc6b4f4f5a2b3a sim_err="operation F6 scheduled before its dependency U6" om=4e17da565d5c84e4
gradinterleaved/datapar/9: codes=[] verify=99d0d07868912123 peak=166 ledger=14da45a578380fd9 makespan=108 sim=1a52efbe5c786b3a counter=8aea62495371f167 om=6c826f82f899df31
gradinterleaved/datapar/9 mut0: codes=["OV101", "OV401"] verify=797205609050c473 ledger_err=3f20bc6a0dfa05da sim_err="operation F2 scheduled before its dependency U2" om=9a818d2de13f310f
gradinterleaved/datapar/9 mut1: codes=[] verify=99d0d07868912123 peak=166 ledger=14da45a578380fd9 makespan=108 sim=ec92c15154e94349 counter=8aea62495371f167 om=cbf29ce484222325
gradinterleaved/datapar/9 mut2: codes=["OV101", "OV401"] verify=e20555b9064dc74e ledger_err=22464611cf1b110a sim_err="operation U3 scheduled before its dependency S[dW3]" om=6fb69a66b5c8354e
"#;

#[test]
fn zoo_checks_with_free_ops_are_pinned() {
    assert_lines(&zoo_lines(&cost_with_free_ops(9), 3), FREE_OPS);
}

#[test]
fn op_level_pipelines_at_128_by_8_are_pinned() {
    let cost = cost(128);
    let mut got = Vec::new();
    for (name, strategy, group) in [
        ("gpipe", Strategy::GPipe, 1),
        ("pipe2", Strategy::OooPipe2, 2),
    ] {
        let (graph, schedule) = op_level_schedule(128, 8, strategy, group);
        let g = Generated {
            graph,
            schedule,
            complete: true,
        };
        got.extend(cell_lines(
            &format!("op-level {name}/128x8"),
            &g,
            &cost,
            128,
            6,
        ));
    }
    assert_lines(&got, OP_LEVEL);
}
