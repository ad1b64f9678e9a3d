//! Vectorization certification over the twelve paper cases.
//!
//! Runs the `acc-verify` vectorization tier (static certificates plus the
//! dynamic lane replay) over the modeling and RTM programs of every
//! seismic case at table scale, renders the certified-widths table the
//! `accverify --vector` binary (and CI) consumes, and drives the seeded
//! mutation gate: three legality-breaking mutation classes — a distance-1
//! carried dependence, a misaligned store base, and a declared reduction
//! rewritten into a running recurrence — must each flip the verdict in
//! **both** tiers on every case, or the gate fails. A verifier that only
//! ever says "legal" proves nothing; the mutations are the evidence it can
//! say "illegal" for exactly the right reasons.

use crate::cases::table_workload;
use crate::verify::table_context;
use acc_verify::vectorize::{certify_program, lane_crosscheck, lane_crosscheck_program};
use acc_verify::{LaneCrossCheck, VectorCertificate, VectorLegality};
use rtm_core::case::{OptimizationConfig, SeismicCase};
use rtm_core::verify::{
    break_reduction_recurrence, break_vector_distance1, case_programs, misalign_base,
};

/// One program's vectorization evidence: the per-loop certificates of the
/// static tier and the per-loop cross-checks against the lane replay.
#[derive(Debug, Clone)]
pub struct VectorReport {
    /// Program label (`"ISOTROPIC 2D modeling"`, …).
    pub program: String,
    /// One certificate per launch, in op order.
    pub certs: Vec<VectorCertificate>,
    /// One tier cross-check per launch, in the same order.
    pub crosschecks: Vec<LaneCrossCheck>,
}

impl VectorReport {
    /// Loops certified legal at width ≥ 2.
    pub fn certified_loops(&self) -> usize {
        self.certs.iter().filter(|c| c.certified_legal()).count()
    }

    /// The widest width certified anywhere in the program.
    pub fn max_width(&self) -> u32 {
        self.certs
            .iter()
            .filter(|c| c.certified_legal())
            .map(|c| c.width)
            .max()
            .unwrap_or(1)
    }

    /// The worst reduction ULP bound in the program (0 = all bitwise).
    pub fn max_ulp(&self) -> u32 {
        self.certs.iter().map(|c| c.ulp_bound).max().unwrap_or(0)
    }

    /// Every launch's static verdict agrees with its lane replay.
    pub fn tiers_agree(&self) -> bool {
        self.crosschecks.iter().all(LaneCrossCheck::agree)
    }

    /// The acceptance predicate: at least one loop certified legal, and
    /// the two tiers never disagree.
    pub fn passes(&self) -> bool {
        self.certified_loops() > 0 && self.tiers_agree()
    }
}

/// Certify the 12 cases (6 propagators × {modeling, RTM}) at table scale
/// under `config`. The certificates are verifier output: `accverify
/// --vector` renders and gates them in CI. No host kernel reads a width
/// from them — the iso kernels vectorise because their branch-free row
/// loops let the compiler do it, as OpenACC's `vector` clause leaves the
/// choice to the compiler.
pub fn certify_all_cases(config: &OptimizationConfig) -> Vec<VectorReport> {
    let ctx = table_context();
    let mut reports = Vec::with_capacity(12);
    for case in SeismicCase::all() {
        let w = table_workload(&case);
        for prog in case_programs(&case, config, ctx.compiler, &w) {
            let certs = certify_program(&prog, &ctx);
            let crosschecks = lane_crosscheck_program(&prog);
            reports.push(VectorReport {
                program: prog.name,
                certs,
                crosschecks,
            });
        }
    }
    reports
}

/// One seeded mutation's outcome: did each tier flip its verdict?
#[derive(Debug, Clone)]
pub struct MutationOutcome {
    /// Program label the mutation was seeded into.
    pub program: String,
    /// Mutation class label.
    pub class: &'static str,
    /// Op index mutated (`None` = no eligible launch — itself a failure:
    /// every program carries eligible loops by construction).
    pub op: Option<usize>,
    /// The static certificate changed in the expected direction.
    pub static_flipped: bool,
    /// The lane replay changed in the expected direction.
    pub dynamic_flipped: bool,
}

impl MutationOutcome {
    /// Both tiers caught the mutation.
    pub fn caught(&self) -> bool {
        self.op.is_some() && self.static_flipped && self.dynamic_flipped
    }
}

/// The three mutation class labels, in gate order.
pub const MUTATION_CLASSES: [&str; 3] = ["distance-1", "misaligned-base", "reduction-recurrence"];

/// Seed every mutation class into every case program and record whether
/// both tiers flip. `verify_all ⇒ 36 outcomes` (12 programs × 3 classes).
pub fn mutation_gate(config: &OptimizationConfig) -> Vec<MutationOutcome> {
    let ctx = table_context();
    let mut outcomes = Vec::with_capacity(36);
    for case in SeismicCase::all() {
        let w = table_workload(&case);
        let clean = case_programs(&case, config, ctx.compiler, &w);
        for class in MUTATION_CLASSES {
            // Fresh copies: each class mutates its own program.
            let mutated = case_programs(&case, config, ctx.compiler, &w);
            for (clean_prog, mut prog) in clean.iter().zip(mutated) {
                let op = match class {
                    "distance-1" => break_vector_distance1(&mut prog, 0),
                    "misaligned-base" => misalign_base(&mut prog, 0),
                    "reduction-recurrence" => break_reduction_recurrence(&mut prog, 0),
                    _ => unreachable!("unknown mutation class"),
                };
                let (static_flipped, dynamic_flipped) = match op {
                    None => (false, false),
                    Some(op) => {
                        let before = launch_at(clean_prog, op);
                        let after = launch_at(&prog, op);
                        let c0 = acc_verify::vectorize::certify_launch(op, before, &ctx);
                        let c1 = acc_verify::vectorize::certify_launch(op, after, &ctx);
                        let l0 = lane_crosscheck(before);
                        let l1 = lane_crosscheck(after);
                        if class == "misaligned-base" {
                            // Alignment does not change legality — the flip
                            // is the residue moving off 0 in both tiers
                            // (the replay must still agree on what it sees).
                            (
                                c0.align_residue == 0 && c1.align_residue == 1,
                                l1.agree() && l0.agree(),
                            )
                        } else {
                            (
                                c0.certified_legal() && !c1.legality.is_legal(),
                                lane_safe(&l0) && !lane_safe(&l1),
                            )
                        }
                    }
                };
                outcomes.push(MutationOutcome {
                    program: clean_prog.name.clone(),
                    class,
                    op,
                    static_flipped,
                    dynamic_flipped,
                });
            }
        }
    }
    outcomes
}

fn launch_at(p: &acc_verify::Program, op: usize) -> &acc_verify::Launch {
    match &p.ops[op] {
        acc_verify::Op::Launch(l) => l,
        other => panic!("op {op} is not a launch: {other:?}"),
    }
}

fn lane_safe(cc: &LaneCrossCheck) -> bool {
    cc.per_width.iter().all(|w| w.dynamic_safe)
}

/// The CI gate: every program certifies at least one legal loop with the
/// tiers agreeing, and every seeded mutation is caught by both tiers.
pub fn vector_gate(reports: &[VectorReport], mutations: &[MutationOutcome]) -> bool {
    reports.len() == 12
        && reports.iter().all(VectorReport::passes)
        && mutations.len() == 36
        && mutations.iter().all(MutationOutcome::caught)
}

/// Render the certified-widths table plus the mutation-gate table.
pub fn vector_table(reports: &[VectorReport], mutations: &[MutationOutcome]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<24} {:>5} {:>9} {:>6} {:>4} {:>6}  verdict\n",
        "program", "loops", "certified", "widest", "ulp", "agree"
    ));
    out.push_str(&"-".repeat(68));
    out.push('\n');
    for r in reports {
        out.push_str(&format!(
            "{:<24} {:>5} {:>9} {:>6} {:>4} {:>6}  {}\n",
            r.program,
            r.certs.len(),
            r.certified_loops(),
            r.max_width(),
            r.max_ulp(),
            if r.tiers_agree() { "yes" } else { "NO" },
            if r.passes() { "pass" } else { "FAIL" }
        ));
    }
    out.push('\n');
    out.push_str(&format!(
        "{:<24} {:<22} {:>4} {:>7} {:>8}  verdict\n",
        "program", "mutation", "op", "static", "dynamic"
    ));
    out.push_str(&"-".repeat(78));
    out.push('\n');
    for m in mutations {
        out.push_str(&format!(
            "{:<24} {:<22} {:>4} {:>7} {:>8}  {}\n",
            m.program,
            m.class,
            m.op.map_or_else(|| "-".into(), |o| o.to_string()),
            if m.static_flipped { "flip" } else { "MISS" },
            if m.dynamic_flipped { "flip" } else { "MISS" },
            if m.caught() { "caught" } else { "ESCAPED" }
        ));
    }
    out
}

fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// The machine-readable report: certificates and mutation outcomes in one
/// JSON object (hand-rolled, like the lint report).
pub fn vector_json(reports: &[VectorReport], mutations: &[MutationOutcome]) -> String {
    let mut progs = Vec::with_capacity(reports.len());
    for r in reports {
        let loops: Vec<String> = r
            .certs
            .iter()
            .zip(r.crosschecks.iter())
            .map(|(c, cc)| {
                let witness = match &c.legality {
                    VectorLegality::Illegal { witness, .. } => {
                        format!(",\"witness\":\"{}\"", json_escape(witness))
                    }
                    _ => String::new(),
                };
                format!(
                    "{{\"kernel\":\"{}\",\"op\":{},\"width\":{},\"legality\":\"{}\",\
                     \"stride\":\"{}\",\"align_residue\":{},\"ulp_bound\":{},\
                     \"min_distance\":{},\"vectorized\":{},\"tiers_agree\":{}{witness}}}",
                    json_escape(&c.kernel),
                    c.op,
                    c.width,
                    c.legality.label(),
                    c.stride_class.label(),
                    c.align_residue,
                    c.ulp_bound,
                    c.min_distance
                        .map_or_else(|| "null".into(), |d| d.to_string()),
                    c.vectorized,
                    cc.agree(),
                )
            })
            .collect();
        progs.push(format!(
            "{{\"program\":\"{}\",\"certified\":{},\"widest\":{},\"passes\":{},\
             \"loops\":[{}]}}",
            json_escape(&r.program),
            r.certified_loops(),
            r.max_width(),
            r.passes(),
            loops.join(",")
        ));
    }
    let muts: Vec<String> = mutations
        .iter()
        .map(|m| {
            format!(
                "{{\"program\":\"{}\",\"class\":\"{}\",\"op\":{},\
                 \"static_flipped\":{},\"dynamic_flipped\":{},\"caught\":{}}}",
                json_escape(&m.program),
                m.class,
                m.op.map_or_else(|| "null".into(), |o| o.to_string()),
                m.static_flipped,
                m.dynamic_flipped,
                m.caught()
            )
        })
        .collect();
    format!(
        "{{\"gate\":{},\"certificates\":[{}],\"mutations\":[{}]}}",
        vector_gate(reports, mutations),
        progs.join(","),
        muts.join(",")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn twelve_reports_all_pass_and_gate_holds() {
        let cfg = OptimizationConfig::default();
        let reports = certify_all_cases(&cfg);
        assert_eq!(reports.len(), 12);
        for r in &reports {
            assert!(r.passes(), "{}: {:?}", r.program, r.certs);
            assert!(
                r.certs.iter().any(|c| c.ulp_bound > 0),
                "{}: no ULP-bounded reduction certified",
                r.program
            );
        }
        let mutations = mutation_gate(&cfg);
        assert_eq!(mutations.len(), 36);
        for m in &mutations {
            assert!(m.caught(), "mutation escaped: {m:?}");
        }
        assert!(vector_gate(&reports, &mutations));
    }

    #[test]
    fn table_and_json_render() {
        let cfg = OptimizationConfig::default();
        let reports = certify_all_cases(&cfg);
        let mutations = mutation_gate(&cfg);
        let table = vector_table(&reports, &mutations);
        assert!(table.contains("ISOTROPIC 2D modeling"));
        assert!(table.contains("reduction-recurrence"));
        assert!(table.contains("caught"));
        assert!(!table.contains("ESCAPED"));
        let json = vector_json(&reports, &mutations);
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"gate\":true"));
        assert_eq!(json.matches("\"program\"").count(), 12 + 36);
        assert!(json.contains("\"legality\":\"legal-with-ulp\""));
    }
}
