//! Cross-crate pipeline tests: each stage of
//! parse → CFG → extraction → pairing → checking → patching feeds the
//! next correctly, including across files.

use ofence::{AnalysisConfig, BarrierId, Engine, SourceFile, UnpairedReason};

const WRITER: &str = r#"
struct msg {
	int len;
	int seq;
	int ready;
};

void msg_publish(struct msg *m, int len)
{
	m->len = len;
	m->seq = len + 1;
	smp_wmb();
	m->ready = 1;
}
"#;

const READER: &str = r#"
struct msg {
	int len;
	int seq;
	int ready;
};

int msg_consume(struct msg *m)
{
	if (!m->ready)
		return 0;
	smp_rmb();
	return m->len + m->seq;
}
"#;

#[test]
fn stage_by_stage() {
    // Stage 1: the front end.
    let parsed = ckit::parse_string("writer.c", WRITER).expect("parses");
    assert!(parsed.errors.is_empty());
    assert_eq!(parsed.unit.functions().count(), 1);
    assert_eq!(parsed.unit.structs().count(), 1);

    // Stage 2: CFG + symbols.
    let lowered = cfgir::LoweredFile::lower(&parsed);
    assert_eq!(lowered.cfgs.len(), 1);
    assert!(lowered.symbols.structs.contains_key("msg"));

    // Stage 3: barrier sites and accesses.
    let fa = ofence::sites::analyze_file(0, &parsed, &AnalysisConfig::default());
    assert_eq!(fa.sites.len(), 1);
    let site = &fa.sites[0];
    assert_eq!(site.kind, kmodel::BarrierKind::Wmb);
    let objs: Vec<String> = site.objects().iter().map(|(o, _)| o.to_string()).collect();
    assert!(objs.contains(&"(struct msg, len)".to_string()));
    assert!(objs.contains(&"(struct msg, ready)".to_string()));
}

#[test]
fn cross_file_pairing_and_checks() {
    let files = vec![
        SourceFile::new("net/writer.c", WRITER),
        SourceFile::new("net/reader.c", READER),
    ];
    let r = Engine::new(AnalysisConfig::default()).analyze(&files);
    assert_eq!(r.sites.len(), 2);
    assert_eq!(r.pairing.pairings.len(), 1);
    // The pairing spans both files.
    let p = &r.pairing.pairings[0];
    let file_set: std::collections::HashSet<usize> =
        p.members.iter().map(|&m| r.site(m).site.file).collect();
    assert_eq!(file_set.len(), 2);
    assert!(r.deviations.is_empty(), "{:?}", r.deviations);
}

#[test]
fn editing_one_file_changes_only_its_sites() {
    let files = vec![
        SourceFile::new("a.c", WRITER),
        SourceFile::new("b.c", READER),
    ];
    let mut engine = Engine::new(AnalysisConfig::default());
    let r1 = engine.analyze(&files);
    let writer_site_span = r1
        .sites
        .iter()
        .find(|s| s.site.function == "msg_publish")
        .unwrap()
        .site
        .span;

    // Add an unrelated function to the reader file.
    let mut files2 = files.clone();
    files2[1].content = format!(
        "{}\nint unrelated(void) {{ return 3; }}\n",
        files2[1].content
    )
    .into();
    let r2 = engine.analyze(&files2);
    // Cached writer analysis is reused: same span, same function.
    let writer_site2 = r2
        .sites
        .iter()
        .find(|s| s.site.function == "msg_publish")
        .unwrap();
    assert_eq!(writer_site2.site.span, writer_site_span);
    assert_eq!(r2.pairing.pairings.len(), 1);
}

#[test]
fn breaking_the_reader_unpairs_the_writer() {
    let broken_reader = READER.replace("smp_rmb();", "/* lost barrier */;");
    let files = vec![
        SourceFile::new("a.c", WRITER),
        SourceFile::new("b.c", broken_reader.as_str()),
    ];
    let r = Engine::new(AnalysisConfig::default()).analyze(&files);
    assert_eq!(r.sites.len(), 1);
    assert!(r.pairing.pairings.is_empty());
    assert_eq!(
        r.pairing.unpaired,
        vec![(BarrierId(0), UnpairedReason::NoMatch)]
    );
}

#[test]
fn barrier_ids_stable_across_identical_runs() {
    let files = vec![
        SourceFile::new("a.c", WRITER),
        SourceFile::new("b.c", READER),
    ];
    let r1 = Engine::new(AnalysisConfig::default()).analyze(&files);
    let r2 = Engine::new(AnalysisConfig::default()).analyze(&files);
    for (s1, s2) in r1.sites.iter().zip(r2.sites.iter()) {
        assert_eq!(s1.id, s2.id);
        assert_eq!(s1.site.function, s2.site.function);
    }
}

#[test]
fn report_stats_consistent_with_results() {
    let files = vec![
        SourceFile::new("a.c", WRITER),
        SourceFile::new("b.c", READER),
    ];
    let r = Engine::new(AnalysisConfig::default()).analyze(&files);
    assert_eq!(r.stats.barriers_total, r.sites.len());
    assert_eq!(r.stats.pairings, r.pairing.pairings.len());
    assert_eq!(r.stats.deviations_total, r.deviations.len());
    assert_eq!(r.stats.files_total, 2);
    let paired: usize = r.pairing.pairings.iter().map(|p| p.members.len()).sum();
    assert_eq!(r.stats.paired_barriers, paired);
    assert!((r.stats.coverage - paired as f64 / r.sites.len() as f64).abs() < 1e-9);
}

#[test]
fn kernel_style_code_survives_front_end() {
    // Exercise kernel-isms end to end: macros, attributes, typedefs,
    // gotos, statement expressions.
    let src = r#"
#include <linux/kernel.h>
#define READY_BIT 0x1
#define is_ready(m) ({ int __r = (m)->flags & READY_BIT; __r; })

typedef unsigned long long u64_t;

struct __attribute__((packed)) frame {
	u64_t payload;
	unsigned int flags;
};

static __always_inline void frame_publish(struct frame *f, u64_t data)
{
	f->payload = data;
	smp_wmb();
	f->flags |= READY_BIT;
}

int frame_poll(struct frame *f)
{
	if (!is_ready(f))
		goto out;
	smp_rmb();
	return f->payload != 0;
out:
	return 0;
}
"#;
    let r = Engine::new(AnalysisConfig::default()).analyze(&[SourceFile::new("frame.c", src)]);
    assert_eq!(r.stats.parse_errors, 0);
    assert_eq!(r.sites.len(), 2);
    assert_eq!(
        r.pairing.pairings.len(),
        1,
        "macro-expanded flag check must still pair: {:?}",
        r.pairing
    );
}
