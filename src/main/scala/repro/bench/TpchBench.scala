package repro.bench

import java.nio.file.Files
import java.sql.Connection

import org.apache.spark.sql.SparkSession

import repro.Oracle
import repro.baselines.VolcanoCsvEngine
import repro.data.TpchLite
import repro.plans.PlanPieces.DistConfig
import repro.plans.TpchPlans
import BenchUtil._

/** Fig 9 reproduction: TPC-H Q4/Q12/Q14/Q19 (paper: SF-500, 8 machines).
  *
  *  - Modularis   = the sub-operator plans on the simulated 8-machine
  *    cluster. `exec` runs over pre-loaded in-memory tables (the paper
  *    excludes read time against MemSQL); `read+exec` adds Modularis's
  *    storage read — every rank parses its slice of the shared CSV files in
  *    parallel — as the paper includes read time against Presto.
  *  - "MemSQL"    = DuckDB over in-memory typed tables, warm runs
  *    (DESIGN.md substitution: a vectorized in-memory SQL engine).
  *  - "Presto"    = the interpreted row-at-a-time Volcano engine re-scanning
  *    CSV storage every run (DESIGN.md substitution: generic interpreted
  *    warehouse; single-threaded — its per-node parallelism stands in for
  *    Presto's much heavier per-row/coordination overheads).
  *  - Spark SQL over cached tables is reported as an extra reference point;
  *    its fixed distributed-planning overhead dominates at laptop scale.
  */
object TpchBench {

  private def duckRun(conn: Connection, sql: String): Int = {
    val rs = conn.createStatement.executeQuery(sql)
    var n = 0
    while (rs.next()) n += 1
    rs.close()
    n
  }

  def run(spark: SparkSession, sf: Double, machines: Int = 8, reps: Int = 3): String = {
    val nRanks = machines * RanksPerMachine
    val cfg = DistConfig(
      nRanks = nRanks,
      net = netFor(machines),
      netBits = 5, localBits = 4, compress = false)

    banner(s"Fig 9 — TPC-H SF=$sf on $machines simulated machines " +
      s"(paper: SF-500 on 8 real machines)")

    // ---- storage bootstrap: cached Spark tables → CSV files
    val tables = TpchLite.tables(spark, sf)
    tables.foreach { case (n, df) => df.createOrReplaceTempView(n) }
    val dir = Files.createTempDirectory("tpch-csv").toFile
    val csv = VolcanoTpch.Tables(
      li = VolcanoCsvEngine.writeTable(tables("lineitem"), dir, "lineitem"),
      ord = VolcanoCsvEngine.writeTable(tables("orders"), dir, "orders"),
      part = VolcanoCsvEngine.writeTable(tables("part"), dir, "part"))
    val data = TpchCsv.load(csv, nRanks)
    val duck = Oracle.duckdb(tables.toSeq: _*)

    val neededTables = Map(
      "Q4" -> Set("lineitem", "orders"), "Q12" -> Set("lineitem", "orders"),
      "Q14" -> Set("lineitem", "part"), "Q19" -> Set("lineitem", "part"))
    val rows = TpchPlans.All.map { case (name, q, sql) =>
      System.gc()
      val modMs = minMs(reps) { q(data, cfg) }
      val modReadMs = minMs(reps) {
        val d = TpchCsv.load(csv, nRanks, neededTables(name))
        q(d, cfg)
      }
      val duckMs = minMs(reps) { duckRun(duck, sql) }
      System.gc()
      val volMs = minMs(reps) {
        VolcanoCsvEngine.run(VolcanoTpch.All.find(_._1 == name).get._2(csv))
      }
      System.gc()
      val sparkMs = minMs(reps) { spark.sql(sql).collect() }
      Seq(name,
        fmt(modMs), fmt(duckMs), f"${modMs / duckMs}%.2fx",
        fmt(modReadMs), fmt(volMs), f"${volMs / modReadMs}%.1fx",
        fmt(sparkMs))
    }
    duck.close()
    table(s"Fig 9 — TPC-H runtimes (SF=$sf)",
      Seq("query", "Modularis exec (ms)", "DuckDB \"MemSQL\" (ms)",
        "Modularis/\"MemSQL\"", "Modularis read+exec (ms)",
        "Volcano-CSV \"Presto\" (ms)", "\"Presto\"/Modularis",
        "SparkSQL cached (ms)"),
      rows)
  }

  def main(args: Array[String]): Unit = {
    val sf = envDouble("REPRO_TPCH_SF", 0.1)
    val spark = SparkSession.builder
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName("tpch-bench")
      .config("spark.sql.shuffle.partitions", "64")
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .getOrCreate()
    try println(run(spark, sf))
    finally spark.stop()
  }
}
