-- A SELECT without FROM is the plan of zero steps: one empty row, which
-- WHERE keeps or drops and which DISTINCT, aggregates, ORDER BY, LIMIT and
-- OFFSET then treat like any other input.

query
SELECT 1 WHERE 1 = 0
----

query
SELECT 1 WHERE 1 = 1
----
1

query
SELECT 1 LIMIT 0
----

query
SELECT 2 ORDER BY 1 LIMIT 1 OFFSET 1
----

query
SELECT 2 ORDER BY 1 LIMIT 1
----
2

-- The one row is counted; a WHERE that drops it leaves the global
-- aggregate its one row over nothing.
query
SELECT count(*)
----
1

query
SELECT count(*) WHERE 1 = 0
----
0

query
SELECT DISTINCT 1
----
1

query
SELECT 1 + 1 AS two, 'x'
----
2|x

-- Zero steps render no table rows; the aggregate is the plan's only row.
explain
SELECT 1 WHERE 1 = 0
----

explain
SELECT count(*)
----
-|HASH AGGREGATE|-|-|1

error
SELECT *
----
SELECT * requires a FROM clause
