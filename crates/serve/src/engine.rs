//! Batch query evaluation over one release's prefix-sum table.

use stpt_queries::{InvalidRangeQuery, PrefixSum3D, RangeQuery};

/// Telemetry: range queries answered (valid or rejected) by the engine.
static QUERIES_TOTAL: stpt_obs::Counter = stpt_obs::Counter::new("serve.queries_total");

/// Answer a batch of range queries against one release's prefix-sum
/// table.
///
/// Every query goes through the fallible
/// [`PrefixSum3D::try_range_sum`] — hostile ranges come back as
/// `Err(InvalidRangeQuery)` entries, never panics. A query is an O(1)
/// lookup in the table, far cheaper than starting a parallel region, so
/// the batch is answered in order on the calling thread; the daemon
/// answers batches concurrently on its acceptor threads instead.
pub fn answer_batch(
    prefix: &PrefixSum3D,
    queries: &[RangeQuery],
) -> Vec<Result<f64, InvalidRangeQuery>> {
    QUERIES_TOTAL.add(queries.len() as u64);
    queries.iter().map(|q| prefix.try_range_sum(q)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use stpt_data::ConsumptionMatrix;
    use stpt_queries::{generate_queries, QueryClass};

    fn table(seed: u64) -> PrefixSum3D {
        let mut rng = StdRng::seed_from_u64(seed);
        let data = (0..8 * 8 * 24).map(|_| rng.gen_range(0.0..4.0)).collect();
        PrefixSum3D::new(&ConsumptionMatrix::from_vec(8, 8, 24, data))
    }

    #[test]
    fn batch_answers_match_serial_evaluation() {
        let ps = table(1);
        let mut rng = StdRng::seed_from_u64(2);
        let queries = generate_queries(QueryClass::Random, 300, ps.shape(), &mut rng);
        let batch = answer_batch(&ps, &queries);
        for (q, a) in queries.iter().zip(&batch) {
            let serial = ps.try_range_sum(q).expect("generated queries are valid");
            assert!(a.as_ref().expect("valid").to_bits() == serial.to_bits());
        }
    }

    #[test]
    fn hostile_queries_yield_errors_not_panics() {
        let ps = table(5);
        let queries = vec![
            RangeQuery {
                x: (0, 2),
                y: (0, 2),
                t: (0, 2),
            },
            // Inverted.
            RangeQuery {
                x: (5, 1),
                y: (0, 2),
                t: (0, 2),
            },
            // Out of bounds.
            RangeQuery {
                x: (0, 2),
                y: (0, 2),
                t: (0, usize::MAX),
            },
        ];
        let answers = answer_batch(&ps, &queries);
        assert!(answers[0].is_ok());
        assert!(answers[1].is_err());
        assert!(answers[2].is_err());
    }
}
