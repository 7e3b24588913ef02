//! The grid-indexed `ComplexLocator` against a linear scan of every
//! facet with the exact barycentric predicate (no box, no grid): both
//! must accept the same points, list the same facets in the same order,
//! and return bit-identical barycentric coordinates.

use gact_topology::geometry::{BBOX_PAD, EPS};
use gact_topology::{
    barycentric_iter, standard_simplex_geometry, Complex, ComplexLocator, Geometry, Point, Simplex,
};

/// The oracle: every facet, in order, through the exact predicate alone.
fn linear_containing(loc: &ComplexLocator, p: &[f64]) -> Vec<(Simplex, Vec<f64>)> {
    loc.entries()
        .filter_map(|(s, l)| {
            l.barycentric(p)
                .filter(|lam| lam.iter().all(|&x| x >= -EPS))
                .map(|lam| (s.clone(), lam))
        })
        .collect()
}

fn assert_agrees(loc: &ComplexLocator, p: &[f64]) {
    let expected = linear_containing(loc, p);
    let got: Vec<(Simplex, Vec<f64>)> = loc.containing(p).map(|(s, l)| (s.clone(), l)).collect();
    assert_eq!(got.len(), expected.len(), "containing({p:?})");
    for ((s, lam), (t, mu)) in got.iter().zip(&expected) {
        assert_eq!(s, t, "containing({p:?}) order");
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(
            bits(lam),
            bits(mu),
            "barycentric coordinates of {p:?} in {s:?}"
        );
    }
    assert_eq!(loc.contains(p), !expected.is_empty(), "contains({p:?})");
}

/// SplitMix64: a seeded, dependency-free source of test points.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// A uniform point of the standard simplex in `R^len`.
    fn simplex_point(&mut self, len: usize) -> Point {
        let mut x: Vec<f64> = (0..len).map(|_| -self.unit().max(1e-300).ln()).collect();
        let sum: f64 = x.iter().sum();
        for c in &mut x {
            *c /= sum;
        }
        x
    }
}

/// `Bary^k` of the standard `n`-simplex, with geometry.
fn subdivided(n: usize, k: usize) -> (Complex, Geometry) {
    let g = standard_simplex_geometry(n);
    let top = Complex::from_facets([Simplex::from_iter(0..=n as u32)]);
    let sd = barycentric_iter(&top, Some(&g), k);
    (sd.complex, sd.geometry.expect("geometry was given"))
}

/// Every probe family on one locator.
fn check_all(loc: &ComplexLocator, g: &Geometry, seed: u64) {
    let len = g.ambient_dim();
    let mut rng = Rng(seed);
    // Random points of the simplex.
    for _ in 0..300 {
        assert_agrees(loc, &rng.simplex_point(len));
    }
    // Neighbourhoods of (at most about) 40 facets spread over the list.
    for (facet, _) in loc.entries().step_by((loc.len() / 40).max(1)) {
        let verts: Vec<&Point> = facet.iter().map(|v| g.coord(v)).collect();
        // Vertices and edge midpoints: points on several facets at once.
        for (i, a) in verts.iter().enumerate() {
            assert_agrees(loc, a);
            for b in &verts[i + 1..] {
                let mid: Point = a.iter().zip(b.iter()).map(|(x, y)| 0.5 * (x + y)).collect();
                assert_agrees(loc, &mid);
            }
        }
        // Points within ±2·BBOX_PAD of the facet's box: its corners and
        // vertices nudged along and off the Σx = 1 plane.
        let lo: Point = (0..len)
            .map(|t| verts.iter().map(|v| v[t]).fold(f64::INFINITY, f64::min))
            .collect();
        let hi: Point = (0..len)
            .map(|t| verts.iter().map(|v| v[t]).fold(f64::NEG_INFINITY, f64::max))
            .collect();
        for _ in 0..4 {
            let corner: Point = (0..len)
                .map(|t| {
                    let base = if rng.next() & 1 == 0 { lo[t] } else { hi[t] };
                    base + (4.0 * rng.unit() - 2.0) * BBOX_PAD
                })
                .collect();
            assert_agrees(loc, &corner);
            let v = verts[rng.next() as usize % verts.len()];
            let (i, j) = (rng.next() as usize % len, rng.next() as usize % len);
            for eps in [1e-10, EPS, 2.0 * EPS, 1e-7, BBOX_PAD, 2.0 * BBOX_PAD] {
                let mut along = v.clone();
                along[i] += eps;
                along[j] -= eps;
                assert_agrees(loc, &along);
                let mut off = v.clone();
                off[i] -= eps;
                assert_agrees(loc, &off);
            }
        }
    }
    // Points off the Σx = 1 plane, and far outside the simplex.
    for _ in 0..100 {
        let p = rng.simplex_point(len);
        let scaled: Point = p.iter().map(|x| x * 1.01).collect();
        assert_agrees(loc, &scaled);
        let mut lifted = p.clone();
        lifted[0] += 1e-8;
        assert_agrees(loc, &lifted);
        let far: Point = p.iter().map(|x| 3.0 * x - 1.0).collect();
        assert_agrees(loc, &far);
    }
    assert_agrees(loc, &vec![f64::NAN; len]);
    assert_agrees(loc, &vec![f64::INFINITY; len]);
    assert_agrees(loc, &vec![f64::NEG_INFINITY; len]);
}

#[test]
fn triangle_subdivision_matches_linear_scan() {
    let (c, g) = subdivided(2, 3);
    let loc = ComplexLocator::new(&g, c.iter_dim(2));
    assert_eq!(loc.len(), 216);
    check_all(&loc, &g, 1);
}

#[test]
fn tetrahedron_subdivision_matches_linear_scan() {
    let (c, g) = subdivided(3, 2);
    let loc = ComplexLocator::new(&g, c.iter_dim(3));
    assert_eq!(loc.len(), 576);
    check_all(&loc, &g, 2);
}

#[test]
fn edge_subdivision_matches_linear_scan() {
    let (c, g) = subdivided(1, 6);
    let loc = ComplexLocator::new(&g, c.iter_dim(1));
    assert_eq!(loc.len(), 64);
    check_all(&loc, &g, 3);
}

#[test]
fn clustered_facets_match_linear_scan() {
    // Facets crowded into one corner, then the whole triangle (the
    // subdivision keeps the corners' ids 0, 1, 2) overlapping all of them:
    // an uneven density is what a uniform grid handles worst.
    let (c, g) = subdivided(2, 4);
    let mut facets: Vec<Simplex> = c
        .iter_dim(2)
        .filter(|f| f.iter().all(|v| g.coord(v)[0] >= 0.6))
        .cloned()
        .collect();
    assert!(facets.len() > 20);
    facets.push(Simplex::from_iter([0u32, 1, 2]));
    let loc = ComplexLocator::new(&g, facets.iter());
    check_all(&loc, &g, 4);
}

#[test]
fn lower_dimensional_facets_match_linear_scan() {
    // Edges of a subdivided triangle: facets whose span is a line in the
    // plane, so most nearby points are off their affine span.
    let (c, g) = subdivided(2, 2);
    let loc = ComplexLocator::new(&g, c.iter_dim(1));
    check_all(&loc, &g, 5);
}

#[test]
fn empty_locator_contains_nothing() {
    let g = standard_simplex_geometry(2);
    let loc = ComplexLocator::new(&g, std::iter::empty());
    assert!(loc.is_empty());
    for p in [
        vec![1.0 / 3.0; 3],
        vec![1.0, 0.0, 0.0],
        vec![-5.0, 2.0, 4.0],
        vec![f64::NAN; 3],
    ] {
        assert!(!loc.contains(&p));
        assert_eq!(loc.containing(&p).count(), 0);
        assert_eq!(loc.candidates(&p).count(), 0);
    }
}
