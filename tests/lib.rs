//! Integration test support crate (tests live in tests/tests).
//!
//! The one reusable piece is [`differential`]: a harness that packs an
//! in-memory [`dr_kb::KnowledgeBase`] into a `.drkb` image, reopens it
//! through the mmap-backed [`dr_kb::MappedKb`], and asserts the two
//! backends are observationally identical — on every graph/taxonomy query
//! surface and on full repair outputs. The in-memory KB is the oracle;
//! the image is the implementation under test.

pub mod differential {
    //! Differential-oracle harness for the `.drkb` mmap KB backend.

    use dr_core::{parallel_repair, DetectiveRule, MatchContext, ParallelOptions};
    use dr_kb::{
        pack, write_image, ClassId, DeltaNode, DeltaOp, InstanceId, KbBuilder, KbDelta, KbRef,
        KnowledgeBase, MappedKb, Node,
    };
    use dr_relation::Relation;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::path::PathBuf;

    /// True when `DR_QUICK` is set: property tests drop to a handful of
    /// cases so a CI smoke leg stays fast. Thorough runs leave it unset.
    pub fn quick_mode() -> bool {
        std::env::var_os("DR_QUICK").is_some()
    }

    /// Proptest case count honoring [`quick_mode`].
    pub fn proptest_cases(full: u32) -> u32 {
        if quick_mode() {
            (full / 8).max(2)
        } else {
            full
        }
    }

    /// A `.drkb` image packed to a scratch file, opened via mmap, and
    /// removed again on drop.
    pub struct PackedKb {
        /// The mmap-backed reader over the packed image.
        pub mapped: MappedKb,
        path: PathBuf,
    }

    impl Drop for PackedKb {
        fn drop(&mut self) {
            std::fs::remove_file(&self.path).ok();
        }
    }

    /// Packs `kb` to a scratch `.drkb` file and reopens it through the
    /// mmap path, demanding the packed content hash.
    pub fn pack_and_open(kb: &KnowledgeBase, tag: &str) -> PackedKb {
        use std::sync::atomic::{AtomicU32, Ordering};
        static NEXT: AtomicU32 = AtomicU32::new(0);
        let path = std::env::temp_dir().join(format!(
            "dr-differential-{tag}-{}-{}.drkb",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        write_image(&path, kb).expect("pack KB image");
        let mapped = MappedKb::open_expecting(&path, kb.content_hash()).expect("reopen image");
        PackedKb { mapped, path }
    }

    /// Generates a randomized KB from `seed`: a random-forest taxonomy,
    /// instances with deliberately colliding labels (so multi-hit label
    /// lookups are exercised), typed and untyped instances, and edges to
    /// both instance and literal objects — every structure the image
    /// format has a section for.
    pub fn random_kb(seed: u64) -> KnowledgeBase {
        random_kb_builder(seed)
            .finalize()
            .expect("forest taxonomy cannot cycle")
    }

    /// The open builder behind [`random_kb`] — delta-vs-rebuild oracles
    /// replay this construction plus a [`KbDelta`]'s ops through the
    /// builder and compare against `apply_delta` applied in place.
    pub fn random_kb_builder(seed: u64) -> KbBuilder {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut b = dr_kb::graph::KbBuilder::new();

        let num_classes = rng.gen_range(0..8usize);
        let classes: Vec<_> = (0..num_classes)
            .map(|c| b.class(&format!("class-{c}")))
            .collect();
        for c in 1..num_classes {
            // A forest: each class may attach under an earlier one, which
            // keeps the taxonomy acyclic by construction.
            if rng.gen_bool(0.7) {
                let parent = classes[rng.gen_range(0..c)];
                b.subclass(classes[c], parent);
            }
        }

        let num_preds = rng.gen_range(1..6usize);
        let preds: Vec<_> = (0..num_preds)
            .map(|p| b.pred(&format!("pred-{p}")))
            .collect();

        let num_instances = rng.gen_range(1..40usize);
        let instances: Vec<_> = (0..num_instances)
            .map(|i| {
                // Collide labels on purpose: `instances_labeled` must
                // return multi-element runs identically on both backends.
                let label = format!("inst-{}", i % 11);
                b.new_instance(&label)
            })
            .collect();
        if !classes.is_empty() {
            for &i in &instances {
                for _ in 0..rng.gen_range(0..3usize) {
                    let c = classes[rng.gen_range(0..classes.len())];
                    b.set_type(i, c);
                }
            }
        }

        let literals: Vec<_> = (0..rng.gen_range(0..10usize))
            .map(|l| b.literal(&format!("value-{l}")))
            .collect();

        let num_edges = rng.gen_range(0..120usize);
        for _ in 0..num_edges {
            let s = instances[rng.gen_range(0..instances.len())];
            let p = preds[rng.gen_range(0..preds.len())];
            let object: Node = if !literals.is_empty() && rng.gen_bool(0.4) {
                literals[rng.gen_range(0..literals.len())].into()
            } else {
                instances[rng.gen_range(0..instances.len())].into()
            };
            b.edge(s, p, object);
        }

        b
    }

    /// Generates a randomized [`KbDelta`] against `kb` from `seed`: a mix
    /// of edge inserts/retracts, type edits, and taxonomy edits, naming
    /// mostly entities that exist in `kb` (so ops actually land) plus a few
    /// fresh names (so interning-order parity is exercised). Retracts are
    /// biased toward real triples of `kb`. Some ops re-emit an earlier edge
    /// op's triple with the opposite polarity (insert → retract → insert),
    /// so the result depends on op order. Taxonomy edits may propose a
    /// cycle — callers handle the `apply_delta` error branch.
    pub fn random_delta(seed: u64, kb: &KnowledgeBase) -> KbDelta {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed_de17a);
        let labels: Vec<String> = kb
            .instances()
            .map(|i| kb.instance_label(i).to_owned())
            .collect();
        let preds: Vec<String> = kb.preds().map(|p| kb.pred_name(p).to_owned()).collect();
        let classes: Vec<String> = kb.classes().map(|c| kb.class_name(c).to_owned()).collect();
        let triples: Vec<(String, String, DeltaNode)> = kb
            .triples()
            .map(|(s, p, o)| {
                let object = match o {
                    Node::Instance(i) => DeltaNode::Instance(kb.instance_label(i).to_owned()),
                    Node::Literal(l) => DeltaNode::Literal(kb.literal_value(l).to_owned()),
                };
                (
                    kb.instance_label(s).to_owned(),
                    kb.pred_name(p).to_owned(),
                    object,
                )
            })
            .collect();

        fn pick(rng: &mut StdRng, pool: &[String], fresh: &str) -> String {
            if pool.is_empty() || rng.gen_bool(0.2) {
                format!("delta-{fresh}-{}", rng.gen_range(0..4u32))
            } else {
                pool[rng.gen_range(0..pool.len())].clone()
            }
        }

        let mut delta = KbDelta::new();
        // Edge ops emitted so far: (subject, pred, object, is_insert).
        let mut edge_ops: Vec<(String, String, DeltaNode, bool)> = Vec::new();
        for _ in 0..rng.gen_range(1..14usize) {
            if !edge_ops.is_empty() && rng.gen_bool(0.25) {
                let (s, p, o, insert) = edge_ops[rng.gen_range(0..edge_ops.len())].clone();
                if insert {
                    delta.retract(&s, &p, o.clone());
                } else {
                    delta.insert(&s, &p, o.clone());
                }
                edge_ops.push((s, p, o, !insert));
                continue;
            }
            match rng.gen_range(0..8u32) {
                0 | 1 => {
                    let object = if rng.gen_bool(0.4) {
                        DeltaNode::Literal(format!("value-{}", rng.gen_range(0..12u32)))
                    } else {
                        DeltaNode::Instance(pick(&mut rng, &labels, "inst"))
                    };
                    let subject = pick(&mut rng, &labels, "inst");
                    let pred = pick(&mut rng, &preds, "pred");
                    delta.insert(&subject, &pred, object.clone());
                    edge_ops.push((subject, pred, object, true));
                }
                2 | 3 => {
                    // Bias retracts toward triples that exist, so they are
                    // not all no-ops.
                    let (s, p, o) = if !triples.is_empty() && rng.gen_bool(0.7) {
                        triples[rng.gen_range(0..triples.len())].clone()
                    } else {
                        let subject = pick(&mut rng, &labels, "inst");
                        let pred = pick(&mut rng, &preds, "pred");
                        let object = DeltaNode::Instance(pick(&mut rng, &labels, "inst"));
                        (subject, pred, object)
                    };
                    delta.retract(&s, &p, o.clone());
                    edge_ops.push((s, p, o, false));
                }
                4 => {
                    let i = pick(&mut rng, &labels, "inst");
                    let c = pick(&mut rng, &classes, "class");
                    delta.add_type(&i, &c);
                }
                5 => {
                    let i = pick(&mut rng, &labels, "inst");
                    let c = pick(&mut rng, &classes, "class");
                    delta.remove_type(&i, &c);
                }
                6 => {
                    let sub = pick(&mut rng, &classes, "class");
                    let sup = pick(&mut rng, &classes, "class");
                    delta.add_subclass(&sub, &sup);
                }
                _ => {
                    let sub = pick(&mut rng, &classes, "class");
                    let sup = pick(&mut rng, &classes, "class");
                    delta.remove_subclass(&sub, &sup);
                }
            }
        }
        delta
    }

    /// Replays `delta`'s ops through an open builder, mirroring the
    /// name-resolution semantics of `KnowledgeBase::apply_delta` 1:1 —
    /// the rebuild side of the delta ≡ rebuild oracle. Entities are
    /// interned even by retract ops, exactly like the in-place path, so
    /// both sides assign identical ids.
    pub fn replay_delta(b: &mut KbBuilder, delta: &KbDelta) {
        fn node(b: &mut KbBuilder, object: &DeltaNode) -> Node {
            match object {
                DeltaNode::Instance(label) => b.instance(label).into(),
                DeltaNode::Literal(value) => b.literal(value).into(),
            }
        }
        for op in delta.ops() {
            match op {
                DeltaOp::InsertTriple {
                    subject,
                    pred,
                    object,
                } => {
                    let s = b.instance(subject);
                    let p = b.pred(pred);
                    let o = node(b, object);
                    b.edge(s, p, o);
                }
                DeltaOp::RetractTriple {
                    subject,
                    pred,
                    object,
                } => {
                    let s = b.instance(subject);
                    let p = b.pred(pred);
                    let o = node(b, object);
                    b.retract_edge(s, p, o);
                }
                DeltaOp::AddType { instance, class } => {
                    let i = b.instance(instance);
                    let c = b.class(class);
                    b.set_type(i, c);
                }
                DeltaOp::RemoveType { instance, class } => {
                    let i = b.instance(instance);
                    let c = b.class(class);
                    b.remove_type(i, c);
                }
                DeltaOp::AddSubclass { sub, sup } => {
                    let a = b.class(sub);
                    let s = b.class(sup);
                    b.subclass(a, s);
                }
                DeltaOp::RemoveSubclass { sub, sup } => {
                    let a = b.class(sub);
                    let s = b.class(sup);
                    b.remove_subclass(a, s);
                }
            }
        }
    }

    /// Asserts a delta applied in place equals rebuilding from scratch:
    /// identical content hash, byte-identical packed image, and agreement
    /// on every query surface. `live` is the `apply_delta` result;
    /// `rebuilt` is the replayed-construction oracle. `live.triples()` must
    /// also come out strictly ascending.
    pub fn assert_delta_equals_rebuild(live: &KnowledgeBase, rebuilt: &KnowledgeBase) {
        let triples: Vec<_> = live.triples().collect();
        assert!(
            triples.windows(2).all(|w| w[0] < w[1]),
            "delta: triples() must be strictly ascending"
        );
        assert_eq!(
            live.content_hash(),
            rebuilt.content_hash(),
            "delta vs rebuild: content hash"
        );
        assert_eq!(
            pack(live),
            pack(rebuilt),
            "delta vs rebuild: packed images must be byte-identical"
        );
        assert_surfaces_agree(rebuilt.into(), live.into());
    }

    fn sorted<T: Ord + Copy>(xs: &[T]) -> Vec<T> {
        let mut v = xs.to_vec();
        v.sort_unstable();
        v
    }

    /// Asserts every query surface of the mapped image answers exactly as
    /// the in-memory oracle: identity and counts, name/label/value
    /// lookups in both directions, adjacency (objects, subjects, edge
    /// membership, outgoing predicates), typing and taxonomy ancestry,
    /// the full triple set, and aggregate stats.
    pub fn assert_backends_agree(mem: &KnowledgeBase, mapped: &MappedKb) {
        let m: KbRef<'_> = mem.into();
        let i: KbRef<'_> = mapped.into();

        assert_eq!(i.content_hash(), m.content_hash(), "content hash");
        assert_ne!(i.generation(), m.generation(), "distinct cache keys");
        assert_eq!(i.backend(), "mmap");
        assert_eq!(m.backend(), "mem");
        assert_surfaces_agree(m, i);
    }

    /// Backend-agnostic half of [`assert_backends_agree`]: every query
    /// surface of `i` must answer exactly as the oracle `m` — also the
    /// agreement check between a delta'd KB and its rebuilt twin.
    pub fn assert_surfaces_agree(m: KbRef<'_>, i: KbRef<'_>) {
        assert_eq!(i.num_classes(), m.num_classes(), "class count");
        assert_eq!(i.num_preds(), m.num_preds(), "pred count");
        assert_eq!(i.num_instances(), m.num_instances(), "instance count");
        assert_eq!(i.num_literals(), m.num_literals(), "literal count");
        assert_eq!(i.num_edges(), m.num_edges(), "edge count");

        for c in m.classes() {
            let name = m.class_name(c);
            assert_eq!(i.class_name(c), name, "class name {c:?}");
            assert_eq!(i.class_named(name), m.class_named(name), "class lookup");
            assert_eq!(i.instances_of(c), m.instances_of(c), "instances_of {name}");
            assert_eq!(
                i.direct_instances_of(c),
                m.direct_instances_of(c),
                "direct_instances_of {name}"
            );
            // Taxonomy ancestry: parent edges, the subsumption closure,
            // and (through it) every ancestor/descendant pair.
            assert_eq!(
                i.taxonomy().parents(c),
                m.taxonomy().parents(c),
                "parents of {name}"
            );
            for d in m.classes() {
                assert_eq!(
                    i.taxonomy().subsumes(d, c),
                    m.taxonomy().subsumes(d, c),
                    "subsumes({d:?}, {c:?})"
                );
            }
        }
        assert_eq!(i.taxonomy().depth(), m.taxonomy().depth(), "taxonomy depth");
        assert_eq!(i.class_named("no-such-class"), None);

        for p in m.preds() {
            let name = m.pred_name(p);
            assert_eq!(i.pred_name(p), name, "pred name");
            assert_eq!(i.pred_named(name), m.pred_named(name), "pred lookup");
        }
        assert_eq!(i.pred_named("no-such-pred"), None);

        for s in m.instances() {
            let label = m.instance_label(s);
            assert_eq!(i.instance_label(s), label, "label of {s:?}");
            assert_eq!(
                i.instances_labeled(label),
                m.instances_labeled(label),
                "instances_labeled({label})"
            );
            assert_eq!(
                i.instance_classes(s),
                m.instance_classes(s),
                "classes of {label}"
            );
            for c in m.classes() {
                assert_eq!(i.has_type(s, c), m.has_type(s, c), "has_type({label})");
            }
            assert_eq!(i.preds_of(s), m.preds_of(s), "preds_of({label})");
            for p in m.preds() {
                assert_eq!(
                    sorted(i.objects(s, p)),
                    sorted(m.objects(s, p)),
                    "objects({label}, {})",
                    m.pred_name(p)
                );
                for &o in m.objects(s, p).iter() {
                    assert!(i.has_edge(s, p, o), "has_edge({label})");
                    assert_eq!(
                        sorted(i.subjects(o, p)),
                        sorted(m.subjects(o, p)),
                        "subjects({})",
                        m.node_value(o)
                    );
                }
            }
        }
        assert!(i.instances_labeled("no-such-label").is_empty());

        for value in ["value-0", "value-7", "absent-value"] {
            assert_eq!(
                i.literal_with_value(value),
                m.literal_with_value(value),
                "literal_with_value({value})"
            );
        }
        for (_, _, o) in m.triples() {
            if let Node::Literal(l) = o {
                let value = m.literal_value(l);
                assert_eq!(i.literal_value(l), value, "literal value");
                assert_eq!(i.literal_with_value(value), Some(l), "literal lookup");
            }
        }

        assert_eq!(i.triples(), m.triples(), "full triple sequence");

        assert_eq!(dr_kb::stats::stats(i), dr_kb::stats::stats(m), "KbStats");

        // Ids past every count answer empty on both backends, never panic.
        let far_class = ClassId::from_index(m.num_classes() + 5);
        let far_instance = InstanceId::from_index(m.num_instances() + 5);
        assert_eq!(i.instances_of(far_class), m.instances_of(far_class));
        assert_eq!(
            i.direct_instances_of(far_class),
            m.direct_instances_of(far_class)
        );
        assert_eq!(
            i.instance_classes(far_instance),
            m.instance_classes(far_instance)
        );
        assert_eq!(i.preds_of(far_instance), m.preds_of(far_instance));
        assert!(m.instances_of(far_class).is_empty());
        assert!(m.instance_classes(far_instance).is_empty());
        for c in m.classes().chain([far_class]) {
            assert_eq!(i.has_type(far_instance, c), m.has_type(far_instance, c));
        }
        for s in m.instances() {
            assert_eq!(i.has_type(s, far_class), m.has_type(s, far_class));
        }
    }

    /// Runs `parallel_repair` over `dirty` against both backends at one
    /// and four worker threads and asserts identical outcomes: the
    /// repaired relations (values and positive marks) and the per-tuple
    /// reports must match exactly.
    pub fn assert_repairs_agree<'a, 'b>(
        mem: impl Into<KbRef<'a>>,
        mapped: impl Into<KbRef<'b>>,
        rules: &[DetectiveRule],
        dirty: &Relation,
    ) {
        let mem_ctx = MatchContext::new(mem.into());
        let img_ctx = MatchContext::new(mapped.into());
        for threads in [1usize, 4] {
            let opts = ParallelOptions {
                threads,
                ..Default::default()
            };
            let mut mem_rel = dirty.clone();
            let mem_report = parallel_repair(&mem_ctx, rules, &mut mem_rel, &opts);
            let mut img_rel = dirty.clone();
            let img_report = parallel_repair(&img_ctx, rules, &mut img_rel, &opts);

            let label = format!("mem vs mmap ({threads} threads)");
            assert_eq!(mem_rel.len(), img_rel.len(), "{label}: row counts");
            for cell in mem_rel.cell_refs() {
                assert_eq!(
                    mem_rel.value(cell),
                    img_rel.value(cell),
                    "{label}: value at {cell:?}"
                );
                assert_eq!(
                    mem_rel.tuple(cell.row).is_positive(cell.attr),
                    img_rel.tuple(cell.row).is_positive(cell.attr),
                    "{label}: positive mark at {cell:?}"
                );
            }
            assert_eq!(
                mem_report.tuples, img_report.tuples,
                "{label}: reports diverged"
            );
        }
    }
}
