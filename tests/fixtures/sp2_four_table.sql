BEGIN TRANSACTION;
CREATE TABLE P ("P#" Char, PNAME Char, COLOR Char, WEIGHT Char, CITY Char, PRIMARY KEY ("P#"));
INSERT INTO "P" VALUES('P1','Nut','Red','12','London');
INSERT INTO "P" VALUES('P2','Bolt','Green','17','Paris');
INSERT INTO "P" VALUES('P3','Screw','Blue','17','Oslo');
INSERT INTO "P" VALUES('P4','Screw','Red','14','London');
INSERT INTO "P" VALUES('P5','Cam','Blue','12','Paris');
INSERT INTO "P" VALUES('P6','Cog','Red','19','London');
CREATE TABLE S ("S#" Char, SNAME Char, STATUS Char, CITY Char, PRIMARY KEY ("S#"));
INSERT INTO "S" VALUES('S1','Smith','20','London');
INSERT INTO "S" VALUES('S2','Jones','10','Paris');
INSERT INTO "S" VALUES('S3','Blake','30','Paris');
INSERT INTO "S" VALUES('S4','Clark','20','London');
INSERT INTO "S" VALUES('S5','Adams','30','Athens');
CREATE TABLE SP_B ("S#" Char, "P#" Char, QTY Int, PRIMARY KEY ("S#", "P#"));
INSERT INTO "SP_B" VALUES('S1','P1',300);
INSERT INTO "SP_B" VALUES('S1','P2',200);
INSERT INTO "SP_B" VALUES('S1','P3',400);
INSERT INTO "SP_B" VALUES('S1','P4',200);
INSERT INTO "SP_B" VALUES('S1','P5',100);
INSERT INTO "SP_B" VALUES('S1','P6',100);
INSERT INTO "SP_B" VALUES('S2','P1',300);
INSERT INTO "SP_B" VALUES('S2','P2',400);
INSERT INTO "SP_B" VALUES('S3','P2',200);
INSERT INTO "SP_B" VALUES('S4','P2',200);
INSERT INTO "SP_B" VALUES('S4','P4',300);
INSERT INTO "SP_B" VALUES('S4','P5',400);
CREATE TABLE sir_attrs (
            rel TEXT NOT NULL, ordinal INTEGER NOT NULL, name TEXT NOT NULL,
            sql_type TEXT, is_key INTEGER NOT NULL, is_inherited INTEGER NOT NULL,
            ie_name TEXT, PRIMARY KEY (rel, ordinal));
INSERT INTO "sir_attrs" VALUES('S',0,'S#','Char',1,0,NULL);
INSERT INTO "sir_attrs" VALUES('S',1,'SNAME','Char',0,0,NULL);
INSERT INTO "sir_attrs" VALUES('S',2,'STATUS','Char',0,0,NULL);
INSERT INTO "sir_attrs" VALUES('S',3,'CITY','Char',0,0,NULL);
INSERT INTO "sir_attrs" VALUES('P',0,'P#','Char',1,0,NULL);
INSERT INTO "sir_attrs" VALUES('P',1,'PNAME','Char',0,0,NULL);
INSERT INTO "sir_attrs" VALUES('P',2,'COLOR','Char',0,0,NULL);
INSERT INTO "sir_attrs" VALUES('P',3,'WEIGHT','Char',0,0,NULL);
INSERT INTO "sir_attrs" VALUES('P',4,'CITY','Char',0,0,NULL);
INSERT INTO "sir_attrs" VALUES('SP',0,'S#','Char',1,0,NULL);
INSERT INTO "sir_attrs" VALUES('SP',1,'P#','Char',1,0,NULL);
INSERT INTO "sir_attrs" VALUES('SP',2,'QTY','Int',0,0,NULL);
INSERT INTO "sir_attrs" VALUES('SP',3,'SNAME',NULL,0,1,'I_S');
INSERT INTO "sir_attrs" VALUES('SP',4,'STATUS',NULL,0,1,'I_S');
INSERT INTO "sir_attrs" VALUES('SP',5,'SCITY',NULL,0,1,'I_S');
INSERT INTO "sir_attrs" VALUES('SP',6,'PNAME',NULL,0,1,'I_P');
INSERT INTO "sir_attrs" VALUES('SP',7,'COLOR',NULL,0,1,'I_P');
INSERT INTO "sir_attrs" VALUES('SP',8,'WEIGHT',NULL,0,1,'I_P');
INSERT INTO "sir_attrs" VALUES('SP',9,'PCITY',NULL,0,1,'I_P');
CREATE TABLE sir_deps (
            src TEXT NOT NULL, dst TEXT NOT NULL);
INSERT INTO "sir_deps" VALUES('SP','S');
INSERT INTO "sir_deps" VALUES('SP','P');
CREATE TABLE sir_ies (
            rel TEXT NOT NULL, ordinal INTEGER NOT NULL, name TEXT NOT NULL,
            source_text TEXT NOT NULL, canonical_text TEXT NOT NULL,
            PRIMARY KEY (rel, ordinal));
INSERT INTO "sir_ies" VALUES('SP',0,'I_S','I_S (SELECT SNAME, STATUS, CITY AS SCITY FROM S WHERE SP.S# = S#)','SELECT SP_B.*, S.SNAME, S.STATUS, S.CITY AS SCITY FROM SP_B LEFT JOIN S ON SP_B."S#" = S."S#"');
INSERT INTO "sir_ies" VALUES('SP',1,'I_P','I_P (SELECT PNAME, COLOR, WEIGHT, CITY AS PCITY FROM P WHERE SP.P# = P#)','SELECT SP_1.*, P.PNAME, P.COLOR, P.WEIGHT, P.CITY AS PCITY FROM SP_1 LEFT JOIN P ON SP_1."P#" = P."P#"');
CREATE TABLE sir_relations (
            name TEXT PRIMARY KEY, kind TEXT NOT NULL, created_at TEXT NOT NULL,
            source_text TEXT NOT NULL, plan TEXT NOT NULL);
INSERT INTO "sir_relations" VALUES('S','stored','2026-10-18T18:24:04.530456+00:00','CREATE TABLE S (S# Char, SNAME Char, STATUS Char, CITY Char, PRIMARY KEY (S#));','[["S", "table", "CREATE TABLE S (\"S#\" Char, SNAME Char, STATUS Char, CITY Char, PRIMARY KEY (\"S#\"));"]]');
INSERT INTO "sir_relations" VALUES('P','stored','2026-10-18T18:24:04.531141+00:00','CREATE TABLE P (P# Char, PNAME Char, COLOR Char, WEIGHT Char, CITY Char, PRIMARY KEY (P#));','[["P", "table", "CREATE TABLE P (\"P#\" Char, PNAME Char, COLOR Char, WEIGHT Char, CITY Char, PRIMARY KEY (\"P#\"));"]]');
INSERT INTO "sir_relations" VALUES('SP','sir','2026-10-18T18:24:04.533807+00:00','CREATE TABLE SP (S# Char, P# Char, QTY Int, I_S (SELECT SNAME, STATUS, CITY AS SCITY FROM S WHERE SP.S# = S#), I_P (SELECT PNAME, COLOR, WEIGHT, CITY AS PCITY FROM P WHERE SP.P# = P#), PRIMARY KEY (S#, P#));','[["SP_B", "table", "CREATE TABLE SP_B (\"S#\" Char, \"P#\" Char, QTY Int, PRIMARY KEY (\"S#\", \"P#\"));"], ["SP_1", "view", "CREATE VIEW SP_1 AS SELECT SP_B.*, S.SNAME, S.STATUS, S.CITY AS SCITY FROM SP_B LEFT JOIN S ON SP_B.\"S#\" = S.\"S#\";", {"kind": "join", "ies": ["I_S"], "adds": ["SNAME", "STATUS", "SCITY"], "joins": [["S", [["S#", "S#"]]]]}], ["SP", "view", "CREATE VIEW SP AS SELECT SP_1.*, P.PNAME, P.COLOR, P.WEIGHT, P.CITY AS PCITY FROM SP_1 LEFT JOIN P ON SP_1.\"P#\" = P.\"P#\";", {"kind": "join", "ies": ["I_P"], "adds": ["PNAME", "COLOR", "WEIGHT", "PCITY"], "joins": [["P", [["P#", "P#"]]]]}]]');
CREATE VIEW SP_1 AS SELECT SP_B.*, S.SNAME, S.STATUS, S.CITY AS SCITY FROM SP_B LEFT JOIN S ON SP_B."S#" = S."S#";
CREATE VIEW SP AS SELECT SP_1.*, P.PNAME, P.COLOR, P.WEIGHT, P.CITY AS PCITY FROM SP_1 LEFT JOIN P ON SP_1."P#" = P."P#";
COMMIT;
