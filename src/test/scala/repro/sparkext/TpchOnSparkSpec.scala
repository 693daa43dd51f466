package repro.sparkext

import repro.{Oracle, SparkSpec}
import repro.data.TpchLite
import repro.plans.TpchPlans._

/** The paper's TPC-H queries executed as SQL on Spark with the Modularis
  * strategy injected — the join (incl. the Q4 EXISTS→semi-join rewrite)
  * runs on ModularisJoinExec; results oracle-checked against DuckDB running
  * the same query text.
  */
class TpchOnSparkSpec extends SparkSpec {
  private val sf = 0.005
  private lazy val tables = {
    val t = TpchLite.tables(spark, sf)
    t.foreach { case (n, df) => df.createOrReplaceTempView(n) }
    t
  }

  private def withStrategy[T](f: => T): T = {
    tables // force generation + temp-view registration before any spark.sql
    spark.experimental.extraStrategies = Seq(ModularisStrategy)
    spark.conf.set("spark.sql.adaptive.enabled", "false")
    try f
    finally {
      spark.experimental.extraStrategies = Nil
      spark.conf.set("spark.sql.adaptive.enabled", "true")
    }
  }

  private def oracleTables = tables.toSeq

  test("Q4 via Spark SQL uses ModularisJoinExec for the EXISTS semi-join") {
    withStrategy {
      val df = spark.sql(q4Sql)
      assert(df.queryExecution.executedPlan.toString.contains("ModularisJoin"))
      Oracle.assertEquivalent(df, q4Sql, oracleTables: _*)
    }
  }

  test("Q12 via Spark SQL matches DuckDB") {
    withStrategy {
      val df = spark.sql(q12Sql)
      assert(df.queryExecution.executedPlan.toString.contains("ModularisJoin"))
      Oracle.assertEquivalent(df, q12Sql, oracleTables: _*)
    }
  }

  test("Q14 via Spark SQL matches DuckDB") {
    withStrategy {
      val df = spark.sql(q14Sql)
      assert(df.queryExecution.executedPlan.toString.contains("ModularisJoin"))
      Oracle.assertEquivalent(df, q14Sql, oracleTables: _*)
    }
  }

  test("Q19 via Spark SQL matches DuckDB") {
    withStrategy {
      Oracle.assertEquivalent(spark.sql(q19Sql), q19Sql, oracleTables: _*)
    }
  }
}
