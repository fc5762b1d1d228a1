-- Aggregation semantics through the batched hash GROUP BY operator:
-- canonical Int/Float grouping keys (1 and 1.0 share a group, matching
-- `=` and the hash-join encoder), NULL keys forming their own group,
-- NULL-ignoring aggregates, DISTINCT aggregates, HAVING over output
-- aliases, and the HASH AGGREGATE explain step with its group estimate.

exec
CREATE TABLE jobs (id INTEGER PRIMARY KEY, owner TEXT, state TEXT, runtime INTEGER, cost FLOAT)

exec
INSERT INTO jobs VALUES
  (1, 'alice', 'running', 40, 1.5),
  (2, 'alice', 'idle',    10, 0.5),
  (3, 'alice', 'idle',    NULL, 1.0),
  (4, 'bob',   'running', 30, NULL),
  (5, 'bob',   'held',    20, 2.5),
  (6, 'carol', 'idle',    NULL, NULL),
  (7, NULL,    'idle',    5,  0.5)

exec
CREATE INDEX jobs_state ON jobs (state)

-- The monitoring-tier shape: single-column hash aggregation.
query
SELECT state, count(*) FROM jobs GROUP BY state ORDER BY state
----
held|1
idle|4
running|2

explain
SELECT state, count(*) FROM jobs GROUP BY state ORDER BY state
----
jobs|SEQ SCAN [CACHED]|SNAPSHOT READ|-|7
-|HASH AGGREGATE (state)|-|-|1

-- Accounting shape: per-owner rollup; NULL owner is its own group, and
-- sum/avg skip NULL inputs.
query
SELECT owner, count(*), sum(runtime), avg(cost) FROM jobs GROUP BY owner ORDER BY owner
----
NULL|1|5|0.5
alice|3|50|1
bob|2|50|2.5
carol|1|NULL|NULL

-- HAVING over an output alias.
query
SELECT owner, count(*) AS n FROM jobs GROUP BY owner HAVING n >= 2 ORDER BY owner
----
alice|3
bob|2

-- Canonical keys: Int 1 and Float 1.0 group together (coalesce yields
-- INTEGER runtime/10 for some rows, FLOAT cost for others).
exec
CREATE TABLE mixed (id INTEGER PRIMARY KEY, i INTEGER, f FLOAT)

exec
INSERT INTO mixed VALUES (1, 1, NULL), (2, NULL, 1.0), (3, 1, NULL), (4, NULL, 2.5)

query
SELECT coalesce(i, f), count(*) FROM mixed GROUP BY coalesce(i, f) ORDER BY 2 DESC
----
1|3
2.5|1

query
SELECT count(DISTINCT coalesce(i, f)) FROM mixed
----
2

query
SELECT DISTINCT coalesce(i, f) FROM mixed ORDER BY 1
----
1
2.5

-- DISTINCT aggregates and compound grouping keys.
query
SELECT state, count(DISTINCT owner) FROM jobs GROUP BY state ORDER BY state
----
held|1
idle|2
running|2

query
SELECT owner, state, count(*) FROM jobs GROUP BY owner, state ORDER BY owner, state
----
NULL|idle|1
alice|idle|2
alice|running|1
bob|held|1
bob|running|1
carol|idle|1

-- Global aggregate: one row even over an empty input.
query
SELECT count(*), sum(runtime), min(cost), max(cost) FROM jobs WHERE state = 'missing'
----
0|NULL|NULL|NULL

explain
SELECT count(*) FROM jobs
----
jobs|SEQ SCAN|SNAPSHOT READ|-|7
-|HASH AGGREGATE|-|-|1

-- Aggregation above a join keeps the join plan and appends the
-- aggregation step.
exec
CREATE TABLE owners (name TEXT, grp TEXT)

exec
INSERT INTO owners VALUES ('alice', 'phys'), ('bob', 'phys'), ('carol', 'bio')

explain
SELECT o.grp, count(*) FROM jobs j JOIN owners o ON o.name = j.owner GROUP BY o.grp
----
owners|SEQ SCAN|SNAPSHOT READ|DRIVER|3
jobs|SEQ SCAN|SNAPSHOT READ|HASH JOIN BUILD OUTER (o.name = j.owner)|21
-|HASH AGGREGATE (o.grp)|-|-|1

query
SELECT o.grp, count(*), sum(j.runtime) FROM jobs j JOIN owners o ON o.name = j.owner GROUP BY o.grp ORDER BY o.grp
----
bio|1|NULL
phys|5|100


