//! `fault-determinism`: the fault, spatial, telemetry, pool and
//! profiler layers run on the hot replay path where even *probe-only*
//! std hash maps have bitten before (capacity-dependent rehash cost skews
//! wall-clock telemetry; accidental later iteration is one refactor
//! away). These files ban `HashMap`/`HashSet` outright — use the
//! deterministic `FxBuild` maps or ordered collections. The bench
//! sweep engine is held to the same bar: its content-addressed cell
//! keys and journal replay must iterate in a stable order or resumed
//! sweeps would schedule cells nondeterministically.

use super::{FileCtx, Pass, RawDiag};
use crate::lexer::Kind;

pub struct FaultDeterminism;

const FILES: &[&str] = &[
    "crates/sim/src/faults.rs",
    "crates/sim/src/spatial.rs",
    "crates/sim/src/telemetry.rs",
    "crates/sim/src/pool.rs",
    "crates/sim/src/prof.rs",
    "crates/bench/src/sweep.rs",
];

impl Pass for FaultDeterminism {
    fn id(&self) -> &'static str {
        "fault-determinism"
    }

    fn rules(&self) -> &'static [&'static str] {
        &["fault-determinism"]
    }

    fn applies(&self, rel: &str) -> bool {
        FILES.contains(&rel)
    }

    fn run(&self, ctx: &FileCtx<'_>, out: &mut Vec<RawDiag>) {
        for t in ctx.toks {
            if t.kind == Kind::Ident && matches!(t.text(ctx.src), "HashMap" | "HashSet") {
                out.push(RawDiag {
                    off: t.start,
                    rule: "fault-determinism",
                    msg: format!(
                        "`{}` is banned in this file; use hash::FxBuild maps or ordered collections",
                        t.text(ctx.src)
                    ),
                });
            }
        }
    }
}
