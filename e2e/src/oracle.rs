//! Expected answers for every query, built from the generator alone, and
//! the per-workload query plans.

use payg_core::{DataType, Value, ValuePredicate};
use payg_table::{Projection, Query, QueryResult, Row};
use payg_workload::gen::{domain_index, domain_value, value_at};
use payg_workload::{QueryGen, TableProfile};
use std::collections::HashMap;

/// The paper's Table 2 query shapes this benchmark drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// `Q_pk^num`: one numeric column of the row with a given PK.
    PkNum,
    /// `Q_pk^str`: one string column of the row with a given PK.
    PkStr,
    /// `Q_pk^*`: the whole row with a given PK.
    PkStar,
    /// `Q_num^count`: rows whose numeric column equals a value.
    NumCount,
    /// `Q_str^count`: rows whose string column equals a value.
    StrCount,
    /// `Q^{sum}_{σpk}`: the sum of a numeric column over 1 % of the PK range.
    RangeSum,
}

impl Shape {
    /// Every shape, in metric order.
    pub const ALL: [Shape; 6] = [
        Shape::PkNum,
        Shape::PkStr,
        Shape::PkStar,
        Shape::NumCount,
        Shape::StrCount,
        Shape::RangeSum,
    ];

    /// The per-layer metric holding this shape's median latency.
    pub fn metric(self) -> &'static str {
        match self {
            Shape::PkNum => "shape.pk_num_p50_us",
            Shape::PkStr => "shape.pk_str_p50_us",
            Shape::PkStar => "shape.pk_star_p50_us",
            Shape::NumCount => "shape.num_count_p50_us",
            Shape::StrCount => "shape.str_count_p50_us",
            Shape::RangeSum => "shape.range_sum_p50_us",
        }
    }
}

/// Selectivity of the `Q^{sum}_{σpk}` range.
pub const RANGE_SELECTIVITY: f64 = 0.01;

/// What a query must return.
#[derive(Debug, Clone, PartialEq)]
pub enum Expect {
    /// Exactly these rows, in this order.
    Rows(Vec<Row>),
    /// This count.
    Count(u64),
    /// This sum, in the column's integer representation.
    Sum(i128),
}

impl Expect {
    /// Whether `got` is the expected answer.
    pub fn holds(&self, got: &QueryResult) -> bool {
        match (self, got) {
            (Expect::Rows(want), QueryResult::Rows(rows)) => want == rows,
            (Expect::Count(want), QueryResult::Count(n)) => want == n,
            (Expect::Sum(want), QueryResult::Sum(v)) => as_i128(v) == Some(*want),
            _ => false,
        }
    }
}

/// One query of a plan with its expected answer.
#[derive(Debug, Clone)]
pub struct Planned {
    /// The query's shape.
    pub shape: Shape,
    /// The column the shape targets (0 for `Q_pk^*`, which reads them all).
    pub target: usize,
    /// The query.
    pub query: Query,
    /// Its answer.
    pub expect: Expect,
}

fn as_i128(v: &Value) -> Option<i128> {
    match v {
        Value::Integer(x) => Some(i128::from(*x)),
        Value::Decimal(x) => Some(*x),
        _ => None,
    }
}

/// Answers derived from the generator: the row of every PK, per-value row
/// counts of every column, and prefix sums of every summable column.
pub struct Oracle {
    profile: TableProfile,
    pk_row: HashMap<Vec<u8>, u64>,
    /// Per column: domain key → domain index.
    domain: Vec<HashMap<Vec<u8>, u64>>,
    /// Per column: rows holding each domain index.
    counts: Vec<Vec<u64>>,
    /// Per summable column: prefix sums over rows (`prefix[r]` = rows `< r`).
    prefix: Vec<Vec<i128>>,
}

impl Oracle {
    /// Builds every expectation for `profile`'s rows.
    pub fn new(profile: &TableProfile) -> Self {
        let rows = profile.rows;
        let pk_row = (0..rows)
            .map(|r| (value_at(profile, 0, r).to_key(), r))
            .collect();
        let mut domain = vec![HashMap::new()];
        let mut counts = vec![Vec::new()];
        let mut prefix = vec![Vec::new()];
        for (c, spec) in profile.columns.iter().enumerate().skip(1) {
            domain.push(
                (0..spec.cardinality)
                    .map(|i| (domain_value(profile, c, i).to_key(), i))
                    .collect(),
            );
            let mut n = vec![0u64; spec.cardinality as usize];
            for r in 0..rows {
                n[domain_index(profile, c, r) as usize] += 1;
            }
            counts.push(n);
            let summable = matches!(spec.data_type, DataType::Integer | DataType::Decimal);
            prefix.push(if summable {
                let mut acc = 0i128;
                let mut p = Vec::with_capacity(rows as usize + 1);
                p.push(0);
                for r in 0..rows {
                    acc += as_i128(&value_at(profile, c, r)).expect("summable column");
                    p.push(acc);
                }
                p
            } else {
                Vec::new()
            });
        }
        Oracle {
            profile: profile.clone(),
            pk_row,
            domain,
            counts,
            prefix,
        }
    }

    fn column(&self, name: &str) -> usize {
        self.profile
            .columns
            .iter()
            .position(|c| c.name == name)
            .expect("query names a generated column")
    }

    fn pk_row_of(&self, v: &Value) -> u64 {
        *self
            .pk_row
            .get(&v.to_key())
            .expect("query names a generated primary key")
    }

    /// The answer to `q`, one of the shapes [`QueryGen`] draws.
    pub fn expect(&self, q: &Query) -> Expect {
        let (name, pred) = q.filter.as_ref().expect("every planned query is filtered");
        match (&q.projection, pred) {
            (Projection::Count, ValuePredicate::Eq(v)) => {
                let c = self.column(name);
                let n = self.domain[c]
                    .get(&v.to_key())
                    .map_or(0, |&i| self.counts[c][i as usize]);
                Expect::Count(n)
            }
            (Projection::Sum(col), ValuePredicate::Between(lo, hi)) => {
                let c = self.column(col);
                let (lo, hi) = (self.pk_row_of(lo), self.pk_row_of(hi));
                Expect::Sum(self.prefix[c][hi as usize + 1] - self.prefix[c][lo as usize])
            }
            (Projection::Columns(cols), ValuePredicate::Eq(v)) => {
                let r = self.pk_row_of(v);
                let row = cols
                    .iter()
                    .map(|n| value_at(&self.profile, self.column(n), r))
                    .collect();
                Expect::Rows(vec![row])
            }
            (Projection::All, ValuePredicate::Eq(v)) => {
                let r = self.pk_row_of(v);
                let row = (0..self.profile.columns.len())
                    .map(|c| value_at(&self.profile, c, r))
                    .collect();
                Expect::Rows(vec![row])
            }
            other => panic!("no expectation for query shape {other:?}"),
        }
    }

    /// About `n` queries drawn from `mix` (shape, weight) with their
    /// answers. The plan is a sequence of rounds; each round holds `weight`
    /// queries of every shape in a shuffled order, and each shape visits the
    /// columns it can target in passes, once per column per pass. So any
    /// stretch of the plan holds the same mixture of cheap and costly
    /// columns, whatever the seed and wherever a time-bound loop stops.
    /// Deterministic per `seed`.
    pub fn plan(&self, seed: u64, mix: &[(Shape, u32)], n: usize) -> Vec<Planned> {
        let mut gen = QueryGen::new(self.profile.clone(), seed);
        let mut state = seed ^ 0x5EED_0000_0000_0E2E;
        let per_round: usize = mix.iter().map(|&(_, w)| w as usize).sum();
        let rounds = n.div_ceil(per_round.max(1));
        let mut streams: Vec<std::vec::IntoIter<Planned>> = mix
            .iter()
            .map(|&(shape, w)| {
                self.passes(&mut gen, &mut state, shape, w as usize * rounds)
                    .into_iter()
            })
            .collect();
        let mut plan = Vec::with_capacity(rounds * per_round);
        for _ in 0..rounds {
            let from = plan.len();
            for (stream, &(_, w)) in streams.iter_mut().zip(mix) {
                plan.extend(stream.by_ref().take(w as usize));
            }
            shuffle(&mut plan[from..], &mut state);
        }
        plan
    }

    /// At least `want` queries of `shape` in passes over the columns the
    /// shape can target: every pass holds one query per column, in a
    /// shuffled order.
    fn passes(
        &self,
        gen: &mut QueryGen,
        state: &mut u64,
        shape: Shape,
        want: usize,
    ) -> Vec<Planned> {
        let types: &[DataType] = match shape {
            Shape::PkNum | Shape::NumCount => {
                &[DataType::Integer, DataType::Decimal, DataType::Double]
            }
            Shape::PkStr | Shape::StrCount => &[DataType::Varchar],
            Shape::RangeSum => &[DataType::Integer, DataType::Decimal],
            Shape::PkStar => &[],
        };
        let mut targets: Vec<usize> = (1..self.profile.columns.len())
            .filter(|&c| types.contains(&self.profile.columns[c].data_type))
            .collect();
        if targets.is_empty() {
            targets.push(0);
        }
        let passes = want.div_ceil(targets.len());
        let mut drawn: Vec<Vec<Planned>> = vec![Vec::new(); self.profile.columns.len()];
        let mut short = targets.len();
        while short > 0 {
            let query = match shape {
                Shape::PkNum => gen.q_pk_num(),
                Shape::PkStr => gen.q_pk_str(),
                Shape::PkStar => gen.q_pk_star(),
                Shape::NumCount => gen.q_num_count(),
                Shape::StrCount => gen.q_str_count(),
                Shape::RangeSum => gen.q_range_sum(RANGE_SELECTIVITY),
            };
            let target = self.target(&query);
            if drawn[target].len() < passes {
                let expect = self.expect(&query);
                drawn[target].push(Planned {
                    shape,
                    target,
                    query,
                    expect,
                });
                short -= (drawn[target].len() == passes) as usize;
            }
        }
        let mut out = Vec::with_capacity(passes * targets.len());
        for _ in 0..passes {
            shuffle(&mut targets, state);
            out.extend(
                targets
                    .iter()
                    .map(|&t| drawn[t].pop().expect("one query per pass")),
            );
        }
        out
    }

    /// The column a query's cost depends on beyond the PK: the projected or
    /// filtered column, 0 (the PK) for `SELECT *`.
    fn target(&self, q: &Query) -> usize {
        match &q.projection {
            Projection::Columns(cols) => self.column(&cols[0]),
            Projection::Sum(col) => self.column(col),
            Projection::Count => q.filter.as_ref().map_or(0, |(name, _)| self.column(name)),
            _ => 0,
        }
    }
}

/// Fisher–Yates with the plan's own generator.
fn shuffle<T>(items: &mut [T], state: &mut u64) {
    for i in (1..items.len()).rev() {
        items.swap(i, (splitmix(state) % (i as u64 + 1)) as usize);
    }
}

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The `k`-th row the ingest writer appends: a fresh PK that sorts after
/// every generated one, and in every other column a value outside the
/// generated domain, so no reader predicate matches it and every reader
/// answer stays invariant.
pub fn ingest_row(profile: &TableProfile, k: u64) -> Row {
    profile
        .columns
        .iter()
        .enumerate()
        .map(|(c, spec)| {
            if c == 0 {
                return Value::Varchar(format!("C00-{:09}~", profile.rows + k));
            }
            // Generated integers are >= -500 000; these are far below.
            let i = -1_000_000_000 - (k % spec.cardinality) as i64;
            match spec.data_type {
                DataType::Integer => Value::Integer(i),
                DataType::Decimal => Value::Decimal(i128::from(i) * 25),
                DataType::Double => Value::Double(i as f64 / 16.0),
                DataType::Varchar => Value::Varchar(format!("Z{c:02}-{:09}", k % spec.cardinality)),
            }
        })
        .collect()
}

/// Bytes of user data in a row: 8 per INTEGER and DOUBLE, 16 per DECIMAL,
/// the length of each string.
pub fn user_bytes(row: &Row) -> u64 {
    row.iter()
        .map(|v| match v {
            Value::Integer(_) | Value::Double(_) => 8,
            Value::Decimal(_) => 16,
            Value::Varchar(s) => s.len() as u64,
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expectations_match_a_brute_force_scan() {
        let profile = TableProfile::erp(3_000, 9, 5);
        let oracle = Oracle::new(&profile);
        let mix = [
            (Shape::PkNum, 1),
            (Shape::PkStr, 1),
            (Shape::PkStar, 1),
            (Shape::NumCount, 1),
            (Shape::StrCount, 1),
            (Shape::RangeSum, 1),
        ];
        let plan = oracle.plan(3, &mix, 120);
        for shape in Shape::ALL {
            assert!(
                plan.iter().filter(|p| p.shape == shape).count() >= 20,
                "{shape:?} short"
            );
        }
        let rows: Vec<Row> = (0..profile.rows)
            .map(|r| {
                (0..profile.columns.len())
                    .map(|c| value_at(&profile, c, r))
                    .collect()
            })
            .collect();
        for p in &plan {
            let (name, pred) = p.query.filter.as_ref().unwrap();
            let fc = oracle.column(name);
            let hits: Vec<&Row> = rows.iter().filter(|r| pred.matches(&r[fc])).collect();
            let brute = match &p.query.projection {
                Projection::Count => Expect::Count(hits.len() as u64),
                Projection::Sum(col) => {
                    let c = oracle.column(col);
                    Expect::Sum(hits.iter().map(|r| as_i128(&r[c]).unwrap()).sum())
                }
                Projection::All => Expect::Rows(hits.into_iter().cloned().collect()),
                Projection::Columns(cols) => Expect::Rows(
                    hits.iter()
                        .map(|r| cols.iter().map(|n| r[oracle.column(n)].clone()).collect())
                        .collect(),
                ),
                other => panic!("{other:?}"),
            };
            assert_eq!(p.expect, brute, "{:?}", p.query);
        }
    }

    #[test]
    fn ingest_rows_match_no_generated_value() {
        let profile = TableProfile::erp(2_000, 11, 8);
        let oracle = Oracle::new(&profile);
        for k in 0..200 {
            let row = ingest_row(&profile, k);
            assert!(!oracle.pk_row.contains_key(&row[0].to_key()));
            for (c, v) in row.iter().enumerate().skip(1) {
                assert!(!oracle.domain[c].contains_key(&v.to_key()), "column {c}");
            }
        }
        // Fresh PKs sort after every generated one, outside any PK range.
        let last = value_at(&profile, 0, profile.rows - 1).to_key();
        assert!(ingest_row(&profile, 0)[0].to_key() > last);
    }

    #[test]
    fn every_stretch_of_a_plan_spreads_evenly_over_columns() {
        let profile = TableProfile::erp(1_000, 17, 4);
        let oracle = Oracle::new(&profile);
        let plan = oracle.plan(
            1,
            &[(Shape::NumCount, 1), (Shape::PkStr, 1), (Shape::PkStar, 1)],
            600,
        );
        assert_eq!(plan.len(), 600);
        let numeric = profile.columns[1..]
            .iter()
            .filter(|c| c.data_type != DataType::Varchar)
            .count();
        let strings = profile.columns.len() - 1 - numeric;
        for p in &plan {
            assert_eq!(p.target, oracle.target(&p.query));
        }
        // Any prefix holds each shape within one round of its share, and
        // each of a shape's columns within one pass of the others.
        for len in [37, 150, 333, 600] {
            let prefix = &plan[..len];
            for (shape, cols) in [
                (Shape::NumCount, numeric),
                (Shape::PkStr, strings),
                (Shape::PkStar, 1),
            ] {
                let of: Vec<&Planned> = prefix.iter().filter(|p| p.shape == shape).collect();
                assert!(
                    of.len().abs_diff(len / 3) <= 1,
                    "{shape:?} has {} of {len}",
                    of.len()
                );
                let mut per = std::collections::BTreeMap::new();
                for p in &of {
                    *per.entry(p.target).or_insert(0usize) += 1;
                }
                let (lo, hi) = (per.values().min().unwrap(), per.values().max().unwrap());
                assert!(hi - lo <= 1, "{shape:?} columns {per:?}");
                if of.len() >= cols {
                    assert_eq!(per.len(), cols);
                }
            }
        }
    }

    #[test]
    fn plans_are_deterministic_per_seed() {
        let profile = TableProfile::erp(1_000, 9, 2);
        let oracle = Oracle::new(&profile);
        let mix = [(Shape::PkNum, 2), (Shape::NumCount, 1)];
        let a = oracle.plan(7, &mix, 50);
        let b = oracle.plan(7, &mix, 50);
        assert!(a
            .iter()
            .zip(&b)
            .all(|(x, y)| x.query == y.query && x.expect == y.expect));
        let c = oracle.plan(8, &mix, 50);
        assert!(a.iter().zip(&c).any(|(x, y)| x.query != y.query));
    }
}
