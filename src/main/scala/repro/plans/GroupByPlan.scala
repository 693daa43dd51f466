package repro.plans

import repro.core._
import repro.mpi._
import PlanPieces._

/** Distributed GROUP BY (sum aggregation over ⟨8 B key, 8 B value⟩ tuples)
  * expressed with the join's sub-operators plus ReduceByKey — the plan of
  * Fig 5 (§4.3). The input is exchanged with the same radix compression as
  * the join; the final aggregation runs per local partition inside the
  * second NestedMap, and — exactly as the paper describes — a ReduceByKey is
  * inserted at every unnesting level and once more at the driver.
  */
object GroupByPlan {

  def rankPlan(slot: ParamSlot, ctx: MpiContext, cfg: DistConfig): SubOp = {
    val keyed = scanField(slot, "data") // ⟨k, v⟩
    val ex    = exchangePipeline(keyed, ctx, cfg, cfg.compression)
    val exR   = new Rename(ex, Seq("npid", "pdata"))

    val nm1 = new NestedMap(exR, slot1 => {
      val side = localPartitionSide(slot1, ctx, cfg, "npid", "pdata", "lpid", "ldata", cfg.compress)
      val nm2 = new NestedMap(side, slot2 => {
        val scan  = scanField(slot2, "ldata")
        val split = if (cfg.compress) splitCompressed(scan, "v", cfg) else scan
        val keyF  = if (cfg.compress) "khi" else "k"
        val rbk = new Timed(
          new ReduceByKey(split, keyF, sumLongValue), ctx.timer, "aggregate")
        val restored = if (cfg.compress) restoreKeys(rbk, slot2, "npid", cfg) else rbk
        new MaterializeRowVector(restored, "data")
      })
      // Post-aggregation at this unnesting level (paper §4.3) — with radix
      // partitioning the groups are disjoint across partitions, so every
      // group here has one tuple and ReduceByKey passes it through without
      // a copy; the plan keeps the operator as described.
      val level = new ReduceByKey(new RowScan(nm2, "data"), "k", sumLongValue)
      new MaterializeRowVector(level, "data")
    })
    val rankLevel = new ReduceByKey(new RowScan(nm1, "data"), "k", sumLongValue)
    new MaterializeRowVector(rankLevel, "data")
  }

  /** Driver plan: per-rank nested plans plus the final driver-side
    * post-aggregation of all workers' results. Returns (stream of ⟨k, v⟩
    * groups, executor).
    *
    * With radix partitioning the per-rank groups are disjoint, so the
    * driver merge is a logical identity; `mergeAtDriver = false` skips it
    * (benches use this so a single-threaded driver re-hash of millions of
    * already-final groups does not mask the cluster-scaling shape).
    */
  def driver(
      parts: Vector[RowVec],
      elemType: TupleType,
      cfg: DistConfig,
      mergeAtDriver: Boolean = true,
  ): (SubOp, MpiExecutor) = {
    require(parts.size == cfg.nRanks)
    val inType = TupleType.of("data" -> CollectionType(elemType))
    val rows   = parts.map(p => Array[Any](p)).toIndexedSeq
    val src    = new VectorSource(rows, inType)
    val exec   = new MpiExecutor(src, cfg.net, (slot, ctx) => rankPlan(slot, ctx, cfg))
    val flat   = new RowScan(exec, "data")
    val out    = if (mergeAtDriver) new ReduceByKey(flat, "k", sumLongValue) else flat
    (out, exec)
  }
}
