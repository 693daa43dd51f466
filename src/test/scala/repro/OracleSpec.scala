package repro

import org.apache.spark.sql.Row
import org.apache.spark.sql.types._
import scala.jdk.CollectionConverters._

/** The DuckDB loader keeps every column's type and value, and the oracle
  * rejects a wrong answer instead of passing it.
  */
class OracleSpec extends SparkSpec {
  private val rows = Seq(
    Row(1L, 1, 1.0E-5, java.sql.Date.valueOf("1993-07-01"), "a|b\"c"),
    Row(2L, -2, 0.1 + 0.2, java.sql.Date.valueOf("1998-12-31"), ""),
    Row(3L, 3, -2.5, java.sql.Date.valueOf("1992-01-01"), null),
    Row(null, null, null, null, "\"\""))
  private lazy val df = spark.createDataFrame(rows.asJava, StructType(Seq(
    StructField("l", LongType), StructField("i", IntegerType),
    StructField("d", DoubleType), StructField("dt", DateType),
    StructField("s", StringType))))

  test("duckdb keeps the type and value of every column") {
    val conn = Oracle.duckdb("t" -> df)
    try {
      val rs = conn.createStatement.executeQuery("SELECT * FROM t ORDER BY l NULLS LAST")
      val meta = rs.getMetaData
      assert((1 to 5).map(meta.getColumnTypeName) ==
        Seq("BIGINT", "INTEGER", "DOUBLE", "DATE", "VARCHAR"))
      def orNull(v: Any): Any = if (rs.wasNull) null else v
      val got = Iterator.continually(rs).takeWhile(_.next()).map { r =>
        Row(orNull(r.getLong(1)), orNull(r.getInt(2)), orNull(r.getDouble(3)),
          r.getDate(4), r.getString(5))
      }.toList
      assert(got == rows)
    } finally conn.close()
    Oracle.assertEquivalent(df, "SELECT * FROM t", "t" -> df)
  }

  test("assertEquivalent rejects a wrong row") {
    val e = intercept[IllegalArgumentException] {
      Oracle.assertEquivalent(df.select("l", "s"),
        "SELECT l, CASE WHEN l = 2 THEN 'x' ELSE s END AS s FROM t", "t" -> df)
    }
    assert(e.getMessage.contains("result mismatch"))
  }

  test("assertEquivalent rejects a mis-aliased column set") {
    val e = intercept[IllegalArgumentException] {
      Oracle.assertEquivalent(df.select("l", "s"), "SELECT l, s AS str FROM t", "t" -> df)
    }
    assert(e.getMessage.contains("column mismatch"))
  }
}
