package repro

import java.io.{BufferedWriter, FileOutputStream, OutputStreamWriter}
import java.nio.charset.StandardCharsets
import java.nio.file.Files
import java.sql.{Connection, DriverManager}
import org.apache.spark.sql.{DataFrame, Row}
import org.apache.spark.sql.types._

/** DuckDB correctness oracle.
  *
  * ``assertEquivalent(sparkDf, sql, tables)`` runs ``sql`` on DuckDB
  * (via JDBC, in-process) over ``tables`` and asserts the sorted rows
  * match ``sparkDf``. This catches wrong results from a rewritten plan
  * or a custom operator — "it ran" is not "it is correct".
  *
  * Alias every output column identically on both sides (Spark names
  * ``count(*)`` as ``count(1)``, DuckDB as ``count_star()``). Project
  * to scalar columns — array/map/struct are not comparable here.
  */
object Oracle {

  private def canon(rows: Seq[Row], cols: Seq[String]): Seq[Seq[String]] = {
    val order = cols.sorted
    val idx   = order.map(cols.indexOf)
    rows
      .map(r => idx.map { i =>
        r.get(i) match {
          case null                 => "∅"
          case d: Double            => f"$d%.6f"
          case f: Float             => f"${f.toDouble}%.6f"
          case bd: java.math.BigDecimal => f"${bd.doubleValue}%.6f"
          case x                    => x.toString
        }
      })
      .sortBy(_.mkString(""))
  }

  private def duckType(t: DataType): String = t match {
    case LongType    => "BIGINT"
    case IntegerType => "INTEGER"
    case DoubleType  => "DOUBLE"
    case DateType    => "DATE"
    case StringType  => "VARCHAR"
    case other => throw new IllegalArgumentException(s"no DuckDB column type for $other")
  }

  /** One CSV field: strings are quoted (so `""` is the empty string and an
    * unquoted empty field is NULL); numbers and dates print in a form
    * DuckDB's typed CSV reader parses back exactly.
    */
  private def csvField(v: Any): String = v match {
    case null      => ""
    case s: String => "\"" + s.replace("\"", "\"\"") + "\""
    case x         => x.toString
  }

  /** Open an in-memory DuckDB holding each of `tables`, with column names
    * and types taken from the DataFrame's schema. The rows are collected to
    * the driver and bulk-loaded through one temporary CSV file per table.
    */
  def duckdb(tables: (String, DataFrame)*): Connection = {
    Class.forName("org.duckdb.DuckDBDriver")
    val conn = DriverManager.getConnection("jdbc:duckdb:")
    try {
      for ((name, df) <- tables) {
        val file = Files.createTempFile(s"duck-$name-", ".csv")
        try {
          val out = new BufferedWriter(new OutputStreamWriter(
            new FileOutputStream(file.toFile), StandardCharsets.UTF_8))
          try df.collect().foreach { r =>
            out.write(r.toSeq.map(csvField).mkString(","))
            out.write('\n')
          } finally out.close()
          val cols = df.schema.fields
            .map(f => s"'${f.name.replace("'", "''")}': '${duckType(f.dataType)}'")
            .mkString("{", ", ", "}")
          conn.createStatement.execute(
            s"CREATE TABLE $name AS SELECT * FROM read_csv('$file', columns = $cols, " +
              "header = false, delim = ',', quote = '\"', escape = '\"', " +
              "allow_quoted_nulls = false)")
        } finally Files.delete(file)
      }
      conn
    } catch { case e: Throwable => conn.close(); throw e }
  }

  def assertEquivalent(sparkDf: DataFrame, sql: String, tables: (String, DataFrame)*): Unit = {
    val conn = duckdb(tables: _*)
    try {
      val rs   = conn.createStatement.executeQuery(sql)
      val meta = rs.getMetaData
      val dCols = (1 to meta.getColumnCount).map(meta.getColumnLabel)
      val dRows = Iterator
        .continually(rs)
        .takeWhile(_.next())
        .map(r => Row.fromSeq((1 to dCols.size).map(r.getObject)))
        .toSeq
      val sCols = sparkDf.columns.toSeq
      require(
        dCols.map(_.toLowerCase).toSet == sCols.map(_.toLowerCase).toSet,
        s"column mismatch: spark=${sCols.sorted} duckdb=${dCols.sorted} — alias every output column"
      )
      val got = canon(sparkDf.collect().toSeq, sCols)
      val exp = canon(dRows, dCols)
      require(got == exp,
        s"result mismatch (${got.size} vs ${exp.size} rows):\n" +
        s"  first spark-only: ${got.diff(exp).take(3)}\n" +
        s"  first duck-only:  ${exp.diff(got).take(3)}"
      )
    } finally conn.close()
  }
}
