//! Binary-relational expressions over the operators the paper calls
//! "natural": `∪` (union), `·` (composition), `*` (reflexive transitive
//! closure) — plus inverse, which §3 needs to evaluate `p(X,b)` queries
//! ("simply apply the algorithm to the query r(b,Y), where r is the
//! inverse of p").
//!
//! Expressions are kept in a light normal form by the smart constructors:
//! unions and compositions are flattened and the unit/zero laws
//! (`e ∪ ∅ = e`, `e·id = e`, `∅·e = ∅`, `∅* = id* = id`, `(e*)* = e*`)
//! are applied on construction.  Anything stronger (e.g. distribution)
//! is applied explicitly by the Lemma 1 steps that need it.

use rq_common::{FxHashSet, Pred};

/// A binary-relational expression.  Leaves are predicate symbols; whether
/// a symbol is base or derived is a property of the surrounding
/// [`crate::system::EqSystem`], not of the expression.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum Expr {
    /// The empty relation `∅`.
    Empty,
    /// The identity relation `id`.
    Id,
    /// A predicate symbol.
    Sym(Pred),
    /// The inverse of a predicate symbol.
    Inv(Pred),
    /// Union of two or more alternatives.
    Union(Vec<Expr>),
    /// Composition of two or more factors, left to right.
    Cat(Vec<Expr>),
    /// Reflexive transitive closure.
    Star(Box<Expr>),
}

impl Expr {
    /// Smart union: flattens, drops `∅`, deduplicates syntactically equal
    /// alternatives, collapses to the single alternative when possible.
    pub fn union(parts: impl IntoIterator<Item = Expr>) -> Expr {
        let mut out: Vec<Expr> = Vec::new();
        let mut seen: FxHashSet<Expr> = FxHashSet::default();
        for p in parts {
            match p {
                Expr::Empty => {}
                Expr::Union(inner) => {
                    for q in inner {
                        if seen.insert(q.clone()) {
                            out.push(q);
                        }
                    }
                }
                other => {
                    if seen.insert(other.clone()) {
                        out.push(other);
                    }
                }
            }
        }
        match out.len() {
            0 => Expr::Empty,
            1 => out.pop().expect("len checked"),
            _ => Expr::Union(out),
        }
    }

    /// Smart composition: flattens, drops `id`, annihilates on `∅`.
    pub fn cat(parts: impl IntoIterator<Item = Expr>) -> Expr {
        let mut out: Vec<Expr> = Vec::new();
        for p in parts {
            match p {
                Expr::Id => {}
                Expr::Empty => return Expr::Empty,
                Expr::Cat(inner) => out.extend(inner),
                other => out.push(other),
            }
        }
        match out.len() {
            0 => Expr::Id,
            1 => out.pop().expect("len checked"),
            _ => Expr::Cat(out),
        }
    }

    /// Smart star: `∅* = id* = id`, `(e*)* = e*`.
    pub fn star(e: Expr) -> Expr {
        match e {
            Expr::Empty | Expr::Id => Expr::Id,
            s @ Expr::Star(_) => s,
            other => Expr::Star(Box::new(other)),
        }
    }

    /// Convenience: a predicate leaf.
    pub fn sym(p: Pred) -> Expr {
        Expr::Sym(p)
    }

    /// Whether `p` occurs anywhere in the expression (as `Sym` or `Inv`).
    pub fn contains(&self, p: Pred) -> bool {
        match self {
            Expr::Empty | Expr::Id => false,
            Expr::Sym(q) | Expr::Inv(q) => *q == p,
            Expr::Union(parts) | Expr::Cat(parts) => parts.iter().any(|e| e.contains(p)),
            Expr::Star(inner) => inner.contains(p),
        }
    }

    /// Whether the expression accepts the empty path (relates every
    /// term to itself through `id`): `id`, any star, and unions or
    /// compositions built from such parts.
    pub fn nullable(&self) -> bool {
        match self {
            Expr::Empty | Expr::Sym(_) | Expr::Inv(_) => false,
            Expr::Id | Expr::Star(_) => true,
            Expr::Union(parts) => parts.iter().any(Expr::nullable),
            Expr::Cat(parts) => parts.iter().all(Expr::nullable),
        }
    }

    /// Whether any of the given predicates occurs.
    pub fn contains_any(&self, preds: &FxHashSet<Pred>) -> bool {
        match self {
            Expr::Empty | Expr::Id => false,
            Expr::Sym(q) | Expr::Inv(q) => preds.contains(q),
            Expr::Union(parts) | Expr::Cat(parts) => parts.iter().any(|e| e.contains_any(preds)),
            Expr::Star(inner) => inner.contains_any(preds),
        }
    }

    /// Collect every predicate symbol occurring in the expression.
    pub fn symbols(&self, out: &mut FxHashSet<Pred>) {
        match self {
            Expr::Empty | Expr::Id => {}
            Expr::Sym(q) | Expr::Inv(q) => {
                out.insert(*q);
            }
            Expr::Union(parts) | Expr::Cat(parts) => {
                for e in parts {
                    e.symbols(out);
                }
            }
            Expr::Star(inner) => inner.symbols(out),
        }
    }

    /// Number of occurrences of `p`.
    pub fn count_occurrences(&self, p: Pred) -> usize {
        match self {
            Expr::Empty | Expr::Id => 0,
            Expr::Sym(q) | Expr::Inv(q) => usize::from(*q == p),
            Expr::Union(parts) | Expr::Cat(parts) => {
                parts.iter().map(|e| e.count_occurrences(p)).sum()
            }
            Expr::Star(inner) => inner.count_occurrences(p),
        }
    }

    /// Total number of predicate-symbol occurrences.  The paper measures
    /// expression size as the total number of tuples across occurrences;
    /// with all argument relations the same size this is proportional to
    /// the occurrence count (see [`Expr::weighted_size`]).
    pub fn occurrence_count(&self) -> usize {
        match self {
            Expr::Empty | Expr::Id => 0,
            Expr::Sym(_) | Expr::Inv(_) => 1,
            Expr::Union(parts) | Expr::Cat(parts) => parts.iter().map(Expr::occurrence_count).sum(),
            Expr::Star(inner) => inner.occurrence_count(),
        }
    }

    /// The paper's size measure: total tuples over all occurrences of
    /// argument relations ("different occurrences of the same relation
    /// are considered different relations").
    pub fn weighted_size(&self, tuples_of: &impl Fn(Pred) -> usize) -> usize {
        match self {
            Expr::Empty | Expr::Id => 0,
            Expr::Sym(q) | Expr::Inv(q) => tuples_of(*q),
            Expr::Union(parts) | Expr::Cat(parts) => {
                parts.iter().map(|e| e.weighted_size(tuples_of)).sum()
            }
            Expr::Star(inner) => inner.weighted_size(tuples_of),
        }
    }

    /// Substitute `replacement` for every occurrence of `Sym(p)`; an
    /// occurrence of `Inv(p)` becomes the inverse of the replacement.
    /// Rebuilds with the smart constructors, so unit laws re-apply.
    pub fn substitute(&self, p: Pred, replacement: &Expr) -> Expr {
        match self {
            Expr::Empty => Expr::Empty,
            Expr::Id => Expr::Id,
            Expr::Sym(q) => {
                if *q == p {
                    replacement.clone()
                } else {
                    Expr::Sym(*q)
                }
            }
            Expr::Inv(q) => {
                if *q == p {
                    replacement.inverse()
                } else {
                    Expr::Inv(*q)
                }
            }
            Expr::Union(parts) => Expr::union(parts.iter().map(|e| e.substitute(p, replacement))),
            Expr::Cat(parts) => Expr::cat(parts.iter().map(|e| e.substitute(p, replacement))),
            Expr::Star(inner) => Expr::star(inner.substitute(p, replacement)),
        }
    }

    /// The inverse expression: `(e1·e2)⁻¹ = e2⁻¹·e1⁻¹`,
    /// `(e1 ∪ e2)⁻¹ = e1⁻¹ ∪ e2⁻¹`, `(e*)⁻¹ = (e⁻¹)*`, `id⁻¹ = id`,
    /// `(p⁻¹)⁻¹ = p`.
    pub fn inverse(&self) -> Expr {
        match self {
            Expr::Empty => Expr::Empty,
            Expr::Id => Expr::Id,
            Expr::Sym(p) => Expr::Inv(*p),
            Expr::Inv(p) => Expr::Sym(*p),
            Expr::Union(parts) => Expr::union(parts.iter().map(Expr::inverse)),
            Expr::Cat(parts) => Expr::cat(parts.iter().rev().map(Expr::inverse)),
            Expr::Star(inner) => Expr::star(inner.inverse()),
        }
    }

    /// The alternatives of the expression seen as a union (a non-union is
    /// a single alternative).
    pub fn alternatives(&self) -> Vec<Expr> {
        match self {
            Expr::Union(parts) => parts.clone(),
            Expr::Empty => vec![],
            other => vec![other.clone()],
        }
    }

    /// The factors of the expression seen as a composition.
    pub fn factors(&self) -> Vec<Expr> {
        match self {
            Expr::Cat(parts) => parts.clone(),
            Expr::Id => vec![],
            other => vec![other.clone()],
        }
    }

    /// Render with a predicate-name resolver.  Union binds loosest
    /// (`U`), composition next (`.`), star/inverse tightest.
    pub fn display(&self, name: &impl Fn(Pred) -> String) -> String {
        self.display_prec(name, 0)
    }

    fn display_prec(&self, name: &impl Fn(Pred) -> String, prec: u8) -> String {
        match self {
            Expr::Empty => "0".to_string(),
            Expr::Id => "id".to_string(),
            Expr::Sym(p) => name(*p),
            Expr::Inv(p) => format!("{}^-1", name(*p)),
            Expr::Union(parts) => {
                let inner: Vec<String> = parts.iter().map(|e| e.display_prec(name, 1)).collect();
                let s = inner.join(" U ");
                if prec > 0 {
                    format!("({s})")
                } else {
                    s
                }
            }
            Expr::Cat(parts) => {
                let inner: Vec<String> = parts.iter().map(|e| e.display_prec(name, 2)).collect();
                let s = inner.join(".");
                if prec > 1 {
                    format!("({s})")
                } else {
                    s
                }
            }
            Expr::Star(inner) => match **inner {
                Expr::Sym(_) | Expr::Inv(_) | Expr::Empty | Expr::Id => {
                    format!("{}*", inner.display_prec(name, 3))
                }
                _ => format!("({})*", inner.display_prec(name, 0)),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(i: u32) -> Expr {
        Expr::Sym(Pred(i))
    }

    fn names(pr: Pred) -> String {
        format!("b{}", pr.0)
    }

    #[test]
    fn union_drops_empty_and_flattens() {
        let e = Expr::union([Expr::Empty, p(1), Expr::union([p(2), p(3)])]);
        assert_eq!(e, Expr::Union(vec![p(1), p(2), p(3)]));
        assert_eq!(Expr::union([Expr::Empty, Expr::Empty]), Expr::Empty);
        assert_eq!(Expr::union([p(1)]), p(1));
    }

    #[test]
    fn nullable_follows_the_empty_path() {
        assert!(Expr::Id.nullable());
        assert!(Expr::star(p(1)).nullable());
        assert!(!p(1).nullable());
        assert!(!Expr::Inv(Pred(1)).nullable());
        assert!(!Expr::Empty.nullable());
        assert!(Expr::union([p(1), Expr::Id]).nullable());
        assert!(!Expr::cat([p(1), Expr::star(p(2))]).nullable());
        assert!(Expr::cat([Expr::star(p(1)), Expr::star(p(2))]).nullable());
    }

    #[test]
    fn union_dedups() {
        let e = Expr::union([p(1), p(2), p(1)]);
        assert_eq!(e, Expr::Union(vec![p(1), p(2)]));
    }

    #[test]
    fn cat_unit_and_zero_laws() {
        assert_eq!(
            Expr::cat([p(1), Expr::Id, p(2)]),
            Expr::Cat(vec![p(1), p(2)])
        );
        assert_eq!(Expr::cat([p(1), Expr::Empty, p(2)]), Expr::Empty);
        assert_eq!(Expr::cat([Expr::Id, Expr::Id]), Expr::Id);
        assert_eq!(
            Expr::cat([Expr::cat([p(1), p(2)]), p(3)]),
            Expr::Cat(vec![p(1), p(2), p(3)])
        );
    }

    #[test]
    fn star_laws() {
        assert_eq!(Expr::star(Expr::Empty), Expr::Id);
        assert_eq!(Expr::star(Expr::Id), Expr::Id);
        let s = Expr::star(p(1));
        assert_eq!(Expr::star(s.clone()), s);
    }

    #[test]
    fn substitution_rebuilds() {
        // p1·p2 with p2 := id collapses to p1.
        let e = Expr::cat([p(1), p(2)]);
        assert_eq!(e.substitute(Pred(2), &Expr::Id), p(1));
        // p2 := ∅ annihilates.
        assert_eq!(e.substitute(Pred(2), &Expr::Empty), Expr::Empty);
    }

    #[test]
    fn substitution_through_inverse() {
        let e = Expr::Inv(Pred(1));
        let r = Expr::cat([p(2), p(3)]);
        assert_eq!(
            e.substitute(Pred(1), &r),
            Expr::Cat(vec![Expr::Inv(Pred(3)), Expr::Inv(Pred(2))])
        );
    }

    #[test]
    fn inverse_reverses_composition() {
        let e = Expr::cat([p(1), Expr::star(p(2)), p(3)]);
        let inv = e.inverse();
        assert_eq!(
            inv,
            Expr::Cat(vec![
                Expr::Inv(Pred(3)),
                Expr::Star(Box::new(Expr::Inv(Pred(2)))),
                Expr::Inv(Pred(1)),
            ])
        );
        // Involution.
        assert_eq!(inv.inverse(), e);
    }

    #[test]
    fn display_precedence() {
        // (b3·b4* ∪ b2·b5)·b1 — the shape of the paper's Figure 1 example.
        let e = Expr::cat([
            Expr::union([Expr::cat([p(3), Expr::star(p(4))]), Expr::cat([p(2), p(5)])]),
            p(1),
        ]);
        assert_eq!(e.display(&names), "(b3.b4* U b2.b5).b1");
    }

    #[test]
    fn counts_and_containment() {
        let e = Expr::cat([p(1), Expr::star(Expr::union([p(2), p(1)]))]);
        assert!(e.contains(Pred(1)));
        assert!(e.contains(Pred(2)));
        assert!(!e.contains(Pred(3)));
        assert_eq!(e.count_occurrences(Pred(1)), 2);
        assert_eq!(e.occurrence_count(), 3);
        let mut syms = FxHashSet::default();
        e.symbols(&mut syms);
        assert_eq!(syms.len(), 2);
    }

    #[test]
    fn weighted_size_counts_occurrences_separately() {
        let e = Expr::union([Expr::cat([p(1), p(2)]), p(1)]);
        let size = e.weighted_size(&|pr: Pred| if pr == Pred(1) { 10 } else { 3 });
        assert_eq!(size, 23);
    }

    #[test]
    fn alternatives_and_factors() {
        let u = Expr::union([p(1), p(2)]);
        assert_eq!(u.alternatives().len(), 2);
        assert_eq!(p(1).alternatives().len(), 1);
        assert!(Expr::Empty.alternatives().is_empty());
        let c = Expr::cat([p(1), p(2)]);
        assert_eq!(c.factors().len(), 2);
        assert!(Expr::Id.factors().is_empty());
    }
}
