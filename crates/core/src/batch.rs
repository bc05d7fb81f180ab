//! The parallel batch runner shared by
//! [`KMismatchIndex::search_batch_with`](crate::KMismatchIndex::search_batch_with)
//! and [`ReadMapper::map_batch_with`](crate::ReadMapper::map_batch_with).

use std::time::Duration;

use kmm_par::ThreadPool;
use kmm_telemetry::{Recorder, TraceRecorder};

use crate::cancel::{CancelToken, Outcome};

/// Run `query` once per item across `pool`, returning the outcomes in
/// input order.
///
/// With `per_query` set, each query gets its own [`CancelToken`] stamped
/// as it starts; `None` hands `query` no token at all. When `recorder`
/// is enabled, each participating worker records into a private
/// [`TraceRecorder`] shard (sharing the recorder's trace epoch, tagged
/// with its 1-based worker id, each query annotated `q={i}` when spans
/// are wanted) and the shards are absorbed into `recorder` after the
/// join. A disabled recorder hands `query` no shard, so the queries run
/// unrecorded.
pub(crate) fn par_queries<P, T, R, F>(
    pool: &ThreadPool,
    items: &[P],
    per_query: Option<Duration>,
    recorder: &R,
    query: F,
) -> Vec<Outcome<T>>
where
    P: Sync,
    T: Send,
    R: Recorder + Sync,
    F: Fn(&P, Option<&CancelToken>, Option<&TraceRecorder>) -> Outcome<T> + Sync,
{
    let shard_metrics = recorder.enabled();
    let tracing = recorder.wants_spans();
    let epoch = recorder.trace_epoch();
    pool.par_map_init(
        items,
        |worker| shard_metrics.then(|| TraceRecorder::shard(epoch, worker as u32 + 1, tracing)),
        |shard, i, item| {
            let token = per_query.map(CancelToken::with_deadline);
            let shard = shard.as_ref();
            if let Some(shard) = shard.filter(|_| tracing) {
                shard.annotate(&format!("q={i}"));
            }
            query(item, token.as_ref(), shard)
        },
        |shard| {
            if let Some(shard) = shard {
                recorder.absorb(&shard.snapshot());
                if tracing {
                    recorder.absorb_traces(shard.drain());
                }
            }
        },
    )
}
