-- Row-count-driven join ordering: a large unindexed fact table joined
-- to a small dimension must drive from the filtered dimension, and the
-- big-vs-big equi-join must pick a hash join. The explain blocks pin the
-- chosen order (row order IS execution order), per-edge strategy, and
-- cardinality estimates.

exec
CREATE TABLE facts (id INTEGER PRIMARY KEY, dim INTEGER, k INTEGER)

exec
CREATE TABLE dims (id INTEGER PRIMARY KEY, name TEXT)

exec
CREATE TABLE other (id INTEGER PRIMARY KEY, k INTEGER)

exec
INSERT INTO dims VALUES (1,'d1'),(2,'d2'),(3,'d3'),(4,'d4')

exec
INSERT INTO facts
VALUES (1,1,0),(2,2,1),(3,3,2),(4,4,3),(5,1,4),(6,2,5),(7,3,6),(8,4,7),
       (9,1,0),(10,2,1),(11,3,2),(12,4,3),(13,1,4),(14,2,5),(15,3,6),(16,4,7),
       (17,1,0),(18,2,1),(19,3,2),(20,4,3),(21,1,4),(22,2,5),(23,3,6),(24,4,7),
       (25,1,0),(26,2,1),(27,3,2),(28,4,3),(29,1,4),(30,2,5),(31,3,6),(32,4,7),
       (33,1,0),(34,2,1),(35,3,2),(36,4,3),(37,1,4),(38,2,5),(39,3,6),(40,4,7)

exec
INSERT INTO other
VALUES (1,0),(2,1),(3,2),(4,3),(5,4),(6,5),(7,6),(8,7),
       (9,0),(10,1),(11,2),(12,3),(13,4),(14,5),(15,6),(16,7),
       (17,0),(18,1),(19,2),(20,3),(21,4),(22,5),(23,6),(24,7),
       (25,0),(26,1),(27,2),(28,3),(29,4),(30,5),(31,6),(32,7)

-- Reorder: facts is syntactically first, but the pk-filtered dimension
-- drives and facts is probed.
explain
SELECT f.id, d.name FROM facts f JOIN dims d ON d.id = f.dim WHERE d.id = 2
----
dims|INDEX SCAN USING pk_dims (id = 2)|SNAPSHOT READ|DRIVER|1
facts|SEQ SCAN|SNAPSHOT READ|NESTED LOOP|10

query
SELECT count(*) FROM facts f JOIN dims d ON d.id = f.dim WHERE d.id = 2
----
10

-- Unindexed equi-join between the two big tables: hash join.
explain
SELECT f.id FROM facts f JOIN other o ON o.k = f.k
----
other|SEQ SCAN|SNAPSHOT READ|DRIVER|32
facts|SEQ SCAN|SNAPSHOT READ|HASH JOIN BUILD OUTER (o.k = f.k)|320

query
SELECT count(*) FROM facts f JOIN other o ON o.k = f.k
----
160
