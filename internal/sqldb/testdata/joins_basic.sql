-- Basic join results and plans over the CAS-shaped schema: machines own
-- vms, matches pair jobs with vms. Sized so the unindexed equi-join
-- hashes while pk probes stay index nested-loops.

exec
CREATE TABLE jobs (id INTEGER PRIMARY KEY, owner TEXT, grp INTEGER)

exec
CREATE TABLE matches (id INTEGER PRIMARY KEY, job_id INTEGER, vm_id INTEGER)

exec
CREATE TABLE vms (id INTEGER PRIMARY KEY, machine TEXT)

exec
INSERT INTO jobs VALUES (1,'ann',0),(2,'bob',1),(3,'ann',0),(4,'cat',1),(5,'bob',0)

exec
INSERT INTO matches VALUES (10,1,100),(11,2,101),(12,4,102)

exec
INSERT INTO vms VALUES (100,'m1'),(101,'m1'),(102,'m2')

query
SELECT j.owner, v.machine FROM matches m
JOIN jobs j ON j.id = m.job_id
JOIN vms v ON v.id = m.vm_id
ORDER BY j.owner
----
ann|m1
bob|m1
cat|m2

explain
SELECT j.owner, v.machine FROM matches m
JOIN jobs j ON j.id = m.job_id
JOIN vms v ON v.id = m.vm_id
----
matches|SEQ SCAN|SNAPSHOT READ|DRIVER|3
jobs|INDEX SCAN USING pk_jobs (id = m.job_id)|SNAPSHOT READ|INDEX NL|3
vms|INDEX SCAN USING pk_vms (id = m.vm_id)|SNAPSHOT READ|INDEX NL|3

query
SELECT j.id, m.id FROM jobs j LEFT JOIN matches m ON m.job_id = j.id ORDER BY j.id
----
1|10
2|11
3|NULL
4|12
5|NULL

query
SELECT j.id FROM jobs j LEFT JOIN matches m ON m.job_id = j.id WHERE m.id IS NULL ORDER BY j.id
----
3
5

error
SELECT nope.x FROM jobs j JOIN matches m ON m.job_id = j.id
----
sqldb: unknown table or alias "nope"

