-- LEFT JOIN edge semantics under the hash-join planner: ON-clause
-- filters keep unmatched outer rows (padded), WHERE filters run after
-- padding, and duplicate build keys fan out.

exec
CREATE TABLE l (id INTEGER PRIMARY KEY, k INTEGER)

exec
CREATE TABLE r (id INTEGER PRIMARY KEY, k INTEGER, tag TEXT)

exec
INSERT INTO l VALUES (1,0),(2,1),(3,2),(4,0),(5,1),(6,2),(7,9),(8,9)

exec
INSERT INTO r VALUES (1,0,'a'),(2,0,'b'),(3,1,'a'),(4,1,'b'),(5,2,'a'),(6,2,'c')

-- Dup keys on both sides: each l-row with k in 0..2 matches two r-rows.
query
SELECT l.id, r.id FROM l LEFT JOIN r ON r.k = l.k ORDER BY l.id, r.id
----
1|1
1|2
2|3
2|4
3|5
3|6
4|1
4|2
5|3
5|4
6|5
6|6
7|NULL
8|NULL

-- ON-local filter: unmatched-by-filter l rows stay, padded.
query
SELECT l.id, r.id FROM l LEFT JOIN r ON r.k = l.k AND r.tag = 'a' ORDER BY l.id, r.id
----
1|1
2|3
3|5
4|1
5|3
6|5
7|NULL
8|NULL

-- The same filter in WHERE removes the padded rows.
query
SELECT l.id, r.id FROM l LEFT JOIN r ON r.k = l.k WHERE r.tag = 'a' ORDER BY l.id, r.id
----
1|1
2|3
3|5
4|1
5|3
6|5

-- Anti-join: only the l rows with no partner.
query
SELECT l.id FROM l LEFT JOIN r ON r.k = l.k WHERE r.id IS NULL ORDER BY l.id
----
7
8

