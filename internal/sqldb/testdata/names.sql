-- Names are resolved once, when the statement is planned, never per row:
-- a name no table carries, or one two tables carry, fails the statement
-- before a row is read, so an empty table refuses it just as a full one
-- does. The alias rule serves ORDER BY and HAVING alike, an alias found
-- by its place in the output row after any star is expanded.

exec
CREATE TABLE t (id INTEGER PRIMARY KEY, a INTEGER, b INTEGER)

exec
CREATE TABLE u (id INTEGER PRIMARY KEY, a INTEGER, c TEXT)

-- Over empty tables: no row ever reaches the evaluator.
error
SELECT nosuch FROM t
----
sqldb: unknown column "nosuch"

error
SELECT a FROM t ORDER BY nosuch
----
sqldb: unknown column "nosuch"

error
SELECT count(*) FROM t GROUP BY nosuch
----
sqldb: unknown column "nosuch"

error
SELECT a, count(*) FROM t GROUP BY a HAVING nosuch > 1
----
sqldb: unknown column "nosuch"

error
SELECT a FROM t JOIN u ON t.id = u.id
----
sqldb: ambiguous column "a"

error
SELECT a FROM t LIMIT a
----
sqldb: LIMIT and OFFSET cannot name a column (a)

-- An aggregate's arguments read input rows: an alias is no column there.
error
SELECT a, count(*) AS n FROM t GROUP BY a HAVING sum(n) > 1
----
sqldb: unknown column "n"

exec
INSERT INTO t VALUES (1, 30, 2), (2, 20, 3), (3, 10, 1)

exec
INSERT INTO u VALUES (1, 5, 'x'), (2, 6, 'y')

-- An alias beside a star names its own output, after the star's columns.
query
SELECT *, b AS x FROM t ORDER BY x
----
3|10|1|1
1|30|2|2
2|20|3|3

query
SELECT *, a - b AS x FROM t ORDER BY x DESC
----
1|30|2|28
2|20|3|17
3|10|1|9

-- HAVING finds an alias beside a star by the same rule.
query
SELECT *, count(*) AS n, b AS x FROM t GROUP BY id, a, b HAVING n = 1 AND x > 1 ORDER BY id
----
1|30|2|1|2
2|20|3|1|3

-- An alias in HAVING yields to a column of its name (b > 1 drops id 3,
-- whose column b is 1); a whole ORDER BY item that is an alias does not.
query
SELECT id, a + 100 AS b FROM t GROUP BY id, a, b HAVING b > 1 ORDER BY b DESC
----
1|130
2|120

-- A join's outputs, an alias over a bare column sorted by name.
query
SELECT t.id, u.c AS label FROM t JOIN u ON t.id = u.id ORDER BY label DESC
----
2|y
1|x
