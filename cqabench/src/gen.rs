//! Seeded input generators.
//!
//! Everything the system under test receives is text made here from the
//! seed: `.cdb` relation files and CQA scripts. The numbers behind the
//! text (boxes, intervals) stay with the benchmark, whose oracles never
//! consult the system.

use cqa::num::prng::Pcg32;
use std::fmt::Write as _;

/// Input sizes. [`Sizes::full`] is what the benchmark measures;
/// [`Sizes::small`] keeps the benchmark's own tests quick in debug builds.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// `region_select`: box tuples under the joint index (§5.4: 10,000).
    pub boxes: usize,
    /// `region_select`: distinct queries the stream cycles through.
    pub windows: usize,
    /// `ingest`: box tuples of the saved base database.
    pub base_boxes: usize,
    /// `ingest`: distinct cycles the stream cycles through.
    pub cycles: usize,
    /// `ingest`: inserts per cycle, each followed by a selection.
    pub writes_per_cycle: usize,
    /// `hurricane`: unit-time segments of the hurricane path.
    pub segments: usize,
    /// `hurricane`: land parcels along the path.
    pub parcels: usize,
    /// `interval_join`: intervals per side of the ungrouped join.
    pub intervals: usize,
    /// `interval_join`: intervals per side of the grouped join.
    pub grouped_intervals: usize,
    /// `interval_join`: distinct values of the grouped join's key.
    pub groups: usize,
}

impl Sizes {
    /// The measured sizes.
    pub fn full() -> Sizes {
        Sizes {
            boxes: 10_000,
            windows: 600,
            base_boxes: 2_000,
            cycles: 16,
            writes_per_cycle: 12,
            segments: 80,
            parcels: 16,
            intervals: 100,
            grouped_intervals: 400,
            groups: 40,
        }
    }

    /// Sizes for the benchmark's own tests.
    pub fn small() -> Sizes {
        Sizes {
            boxes: 300,
            windows: 12,
            base_boxes: 120,
            cycles: 2,
            writes_per_cycle: 3,
            segments: 24,
            parcels: 4,
            intervals: 24,
            grouped_intervals: 40,
            groups: 5,
        }
    }
}

/// §5.4's coordinate domain `[0, 3000]` and rectangle extents `[1, 100]`.
const COORD_MAX: i64 = 3000;
const EXTENT_MAX: i64 = 100;

/// The domain every box lies in; one-attribute queries of the §5 replay
/// stretch the unconstrained attribute over it.
pub const WORLD: (f64, f64) = (0.0, (COORD_MAX + EXTENT_MAX) as f64);

/// A closed integer box `[x0, x1] × [y0, y1]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IBox {
    /// Extent in `x`.
    pub x: (i64, i64),
    /// Extent in `y`.
    pub y: (i64, i64),
}

/// A box selection; `None` leaves an attribute unconstrained (the
/// one-attribute queries of Figure 5).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Window {
    /// Bounds on `x`.
    pub x: Option<(i64, i64)>,
    /// Bounds on `y`.
    pub y: Option<(i64, i64)>,
}

fn extent(rng: &mut Pcg32) -> (i64, i64) {
    let lo = rng.gen_range_i64(0, COORD_MAX);
    (lo, lo + rng.gen_range_i64(1, EXTENT_MAX))
}

/// `n` boxes by the §5.4 protocol.
pub fn random_boxes(rng: &mut Pcg32, n: usize) -> Vec<IBox> {
    (0..n)
        .map(|_| IBox {
            x: extent(rng),
            y: extent(rng),
        })
        .collect()
}

impl Window {
    /// The `i`-th query of a §5.4 stream: every third one bounds both
    /// attributes (Figure 4), the others bound `x` or `y` alone (Figure 5).
    pub fn nth(rng: &mut Pcg32, i: usize) -> Window {
        let (x, y) = (extent(rng), extent(rng));
        match i % 3 {
            0 => Window {
                x: Some(x),
                y: Some(y),
            },
            1 => Window {
                x: Some(x),
                y: None,
            },
            _ => Window {
                x: None,
                y: Some(y),
            },
        }
    }

    /// Whether both attributes are bounded.
    pub fn two_attr(&self) -> bool {
        self.x.is_some() && self.y.is_some()
    }

    /// Whether the box overlaps the window (closed intervals).
    pub fn hits(&self, b: &IBox) -> bool {
        let meets =
            |w: Option<(i64, i64)>, (lo, hi): (i64, i64)| w.is_none_or(|(a, z)| lo <= z && a <= hi);
        meets(self.x, b.x) && meets(self.y, b.y)
    }

    /// Ids of the boxes the window overlaps, ascending: the brute-force
    /// answer a selection must return.
    pub fn matches(&self, boxes: &[IBox]) -> Vec<u64> {
        (0..boxes.len())
            .filter(|&i| self.hits(&boxes[i]))
            .map(|i| i as u64)
            .collect()
    }

    /// The selection over `Boxes` as a one-statement script.
    pub fn script(&self, target: &str) -> String {
        let mut conds = Vec::new();
        for (attr, bounds) in [("x", self.x), ("y", self.y)] {
            if let Some((lo, hi)) = bounds {
                conds.push(format!("{attr} >= {lo}"));
                conds.push(format!("{attr} <= {hi}"));
            }
        }
        format!("{target} = select {} from Boxes\n", conds.join(", "))
    }
}

fn box_conds(id: usize, b: &IBox) -> String {
    format!(
        "id = \"b{id}\"; x >= {}; x <= {}; y >= {}; y <= {}",
        b.x.0, b.x.1, b.y.0, b.y.1
    )
}

/// The `Boxes` relation: tuple `i` has id `b{i}`.
pub fn boxes_cdb(boxes: &[IBox]) -> String {
    let mut out = String::from(
        "relation Boxes {\n  id: string relational;\n  x: rational constraint;\n  y: rational constraint;\n}\n",
    );
    for (i, b) in boxes.iter().enumerate() {
        let _ = writeln!(out, "tuple Boxes {{ {} }}", box_conds(i, b));
    }
    out
}

/// An `insert into Boxes` statement for box `b` with id `b{id}`.
pub fn insert_stmt(id: usize, b: &IBox) -> String {
    format!("insert into Boxes {{ {} }}\n", box_conds(id, b))
}

/// The §3.3 Hurricane database, scaled up, and the five case-study
/// queries over it.
pub struct Hurricane {
    /// `Land`, `Landownership` and `Hurricane` as `.cdb` text.
    pub cdb: String,
    /// Q1–Q5 as multi-step scripts.
    pub scripts: Vec<String>,
}

const OWNERS: [&str; 8] = ["Ann", "Bob", "Carl", "Dina", "Elle", "Finn", "Gus", "Hana"];

/// The Figure 2 instance grown along its time axis: a path of `segments`
/// unit-time segments moving east at unit speed (`x = t`) while `y`
/// wanders in `[1, 3]`, across `parcels` parcels (rectangles, every third
/// a triangle like parcel C), each owned by two people in turn.
/// The layout is fixed and the seed only jitters it, so every seed asks
/// about the same amount of work of the system.
pub fn hurricane(rng: &mut Pcg32, segments: usize, parcels: usize) -> Hurricane {
    let mut cdb = String::from(
        "relation Land {\n  landId: string relational;\n  x: rational constraint;\n  y: rational constraint;\n}\n\
         relation Landownership {\n  name: string relational;\n  t: rational constraint;\n  landId: string relational;\n}\n\
         relation Hurricane {\n  t: rational constraint;\n  x: rational constraint;\n  y: rational constraint;\n}\n",
    );
    let span = segments as i64;
    let width = span / parcels as i64;
    for p in 0..parcels as i64 {
        let x0 = width * p + rng.gen_range_i64(0, 1);
        let x1 = width * (p + 1) - rng.gen_range_i64(1, 2);
        let _ = if p % 3 == 2 {
            writeln!(
                cdb,
                "tuple Land {{ landId = \"L{p}\"; x >= {x0}; y >= 0; x + y <= {} }}",
                x1 + 2
            )
        } else {
            writeln!(
                cdb,
                "tuple Land {{ landId = \"L{p}\"; x >= {x0}; x <= {x1}; y >= 0; y <= 4 }}"
            )
        };
        // Two owners split [0, span] at a seeded time; Ann holds every
        // fourth parcel first, so Q4 always has periods to carve out.
        let cuts = [0, rng.gen_range_i64(1, span - 1), span];
        for k in 0..2 {
            let name = if k == 0 && p % 4 == 0 {
                "Ann"
            } else {
                OWNERS[rng.gen_below_usize(OWNERS.len())]
            };
            let _ = writeln!(
                cdb,
                "tuple Landownership {{ name = \"{name}\"; t >= {}; t <= {}; landId = \"L{p}\" }}",
                cuts[k],
                cuts[k + 1]
            );
        }
    }
    // Vertex i sits at (i, k_i / 4) with k_i in [4, 12]; segment i is
    // 4y = k_i + (k_{i+1} - k_i)(t - i) for t in [i, i + 1].
    let ks: Vec<i64> = (0..=segments).map(|_| rng.gen_range_i64(4, 12)).collect();
    for i in 0..segments {
        let d = ks[i + 1] - ks[i];
        let eq = linear_eq(&[(4, "y"), (-d, "t")], d * i as i64 - ks[i]);
        let _ = writeln!(
            cdb,
            "tuple Hurricane {{ t >= {i}; t <= {}; x = t; {eq} }}",
            i + 1
        );
    }
    // Seeded choices that keep each query's work the same for every seed:
    // Q5 picks a rectangle, and Q3's window spans one rectangle-rectangle-
    // triangle period of parcels, aligned to parcel boundaries.
    let triples = parcels / 3;
    let q1 = rng.gen_below_usize(parcels);
    let q5 = 3 * rng.gen_below_usize(triples);
    let t0 = 3 * width * rng.gen_below_usize(triples) as i64;
    let t1 = t0 + 3 * width;
    let scripts = vec![
        // Q1: who owned parcel q1, and when.
        format!("R0 = select landId = \"L{q1}\" from Landownership\nR1 = project R0 on name, t\n"),
        // Q2: the parcels the hurricane passed.
        "R0 = join Hurricane and Land\nR1 = project R0 on landId\n".to_string(),
        // Q3: the owners hit during [t0, t1].
        format!(
            "R0 = join Landownership and Land\nR1 = select t >= {t0}, t <= {t1} from Hurricane\n\
             R2 = join R0 and R1\nR3 = project R2 on name\n"
        ),
        // Q4: when each parcel was hit while Ann did not own it. The
        // paper's Q4 drops `t`; keeping it makes the difference carve
        // Ann's periods out of the hit periods by DNF negation.
        "R0 = join Hurricane and Land\nR1 = project R0 on landId, t\n\
         R2 = select name = \"Ann\" from Landownership\nR3 = project R2 on landId, t\n\
         R4 = diff R1 and R3\n"
            .to_string(),
        // Q5: when parcel q5 was hit.
        format!(
            "R0 = select landId = \"L{q5}\" from Land\nR1 = join Hurricane and R0\nR2 = project R1 on t\n"
        ),
    ];
    Hurricane { cdb, scripts }
}

/// Renders `Σ cᵢ·vᵢ + k = 0` with positive coefficients on both sides:
/// the script syntax has no negative literals.
fn linear_eq(terms: &[(i64, &str)], k: i64) -> String {
    let term = |c: i64, v: &str| {
        if c == 1 {
            v.to_string()
        } else {
            format!("{c}*{v}")
        }
    };
    let (mut lhs, mut rhs) = (Vec::new(), Vec::new());
    for &(c, v) in terms {
        if c > 0 {
            lhs.push(term(c, v));
        } else if c < 0 {
            rhs.push(term(-c, v));
        }
    }
    if k > 0 {
        lhs.push(k.to_string());
    } else if k < 0 {
        rhs.push((-k).to_string());
    }
    let side = |s: Vec<String>| {
        if s.is_empty() {
            "0".to_string()
        } else {
            s.join(" + ")
        }
    };
    format!("{} = {}", side(lhs), side(rhs))
}

/// The interval-join relations and the two query forms over them.
pub struct Intervals {
    /// `A`, `B` (ungrouped) and `GA`, `GB` (grouped on `g`) as `.cdb` text.
    pub cdb: String,
    /// `A ⋈ B` on the shared constraint attribute `x`, projected to pairs.
    pub ungrouped: String,
    /// `GA ⋈ GB` on the shared key `g` and on `x`, projected to pairs.
    pub grouped: String,
    /// Brute-force count of overlapping `A × B` pairs.
    pub ungrouped_rows: usize,
    /// Brute-force count of overlapping `GA × GB` pairs with equal keys.
    pub grouped_rows: usize,
}

/// Seeded §5.4-domain intervals: `n` per side ungrouped, `gn` per side
/// grouped over `groups` key values.
pub fn intervals(rng: &mut Pcg32, n: usize, gn: usize, groups: usize) -> Intervals {
    let a: Vec<(i64, i64)> = (0..n).map(|_| extent(rng)).collect();
    let b: Vec<(i64, i64)> = (0..n).map(|_| extent(rng)).collect();
    let mut keyed = || -> Vec<(usize, (i64, i64))> {
        (0..gn)
            .map(|_| (rng.gen_below_usize(groups), extent(rng)))
            .collect()
    };
    let (ga, gb) = (keyed(), keyed());

    let mut cdb = String::new();
    for (rel, id, rows) in [("A", "aid", &a), ("B", "bid", &b)] {
        let _ = writeln!(
            cdb,
            "relation {rel} {{\n  {id}: string relational;\n  x: rational constraint;\n}}"
        );
        for (i, (lo, hi)) in rows.iter().enumerate() {
            let _ = writeln!(
                cdb,
                "tuple {rel} {{ {id} = \"{}{i}\"; x >= {lo}; x <= {hi} }}",
                &id[..1]
            );
        }
    }
    for (rel, id, rows) in [("GA", "aid", &ga), ("GB", "bid", &gb)] {
        let _ = writeln!(
            cdb,
            "relation {rel} {{\n  g: string relational;\n  {id}: string relational;\n  x: rational constraint;\n}}"
        );
        for (i, (g, (lo, hi))) in rows.iter().enumerate() {
            let _ = writeln!(
                cdb,
                "tuple {rel} {{ g = \"g{g}\"; {id} = \"{}{i}\"; x >= {lo}; x <= {hi} }}",
                &id[..1]
            );
        }
    }
    let overlap = |p: &(i64, i64), q: &(i64, i64)| p.0 <= q.1 && q.0 <= p.1;
    let ungrouped_rows = a
        .iter()
        .map(|p| b.iter().filter(|q| overlap(p, q)).count())
        .sum();
    let grouped_rows = ga
        .iter()
        .map(|(g, p)| gb.iter().filter(|(h, q)| g == h && overlap(p, q)).count())
        .sum();
    Intervals {
        cdb,
        ungrouped: "J = join A and B\nP = project J on aid, bid\n".to_string(),
        grouped: "K = join GA and GB\nQ = project K on g, aid, bid\n".to_string(),
        ungrouped_rows,
        grouped_rows,
    }
}
