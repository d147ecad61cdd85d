// granula — command-line front end for the whole pipeline.
//
//   granula run      --platform=giraph|powergraph|hadoop|pgxd|graphmat
//                    --algorithm=BFS
//                    [--workers=8] [--nodes=8] [--source=1] [--iterations=10]
//                    [--model-level=0] [--archive-out=run.json]
//                    [--svg-prefix=run] [--html-out=report.html]
//                    [--save-repo=DIR] [--log-out=run.jsonl]
//                    [--live-log=run.live.jsonl] [--live-log-delay-us=0]
//                    [--slow-node=ID:FACTOR]
//                    [--fault=SPEC[,SPEC...]] [--fault-seed=N]
//                    [--fault-count=2] [--max-attempts=4]
//                    [--checkpoint-interval=2]
//                    (fault SPECs: crash:WORKER:STEP[:N] task:WORKER:STEP[:N]
//                     storage:WORKER[:N] logdrop:SEQ logtrunc:SEQ;
//                     exit 1 when the job exhausts its retries; exit 64
//                     before any work on a bad or negative numeric flag
//                     or an algorithm the platform has no program for)
//   granula bench    [--config=sweep.json]
//                    [--platforms=giraph,pgxd,...] [--algorithms=BFS,WCC,...]
//                    [--graphs=SPEC (repeatable)] [--nodes=4,8]
//                    [--faults=NAME=SPEC (repeatable)]
//                    [--iterations=10] [--source=1] [--max-attempts=4]
//                    [--checkpoint-interval=2] [--model-level=0]
//                    [--repo=sweep-archives] [--sequential]
//                    [--report-out=report.txt]
//                    [--baseline=DIR] [--tolerance=0.1] [--depth=0]
//                    (runs the platforms x algorithms x graphs x nodes
//                     [x faults] sweep into one archive repository, prints
//                     the per-phase comparative report, and — with
//                     --baseline — gates against a committed baseline
//                     sweep: exit 2 on a regression past tolerance or a
//                     baseline job missing from the candidate; exit 64 on
//                     config/axis errors, bad numeric flags and platform x
//                     algorithm pairs without a program, before any job
//                     runs. Flags override config axes; the
//                     config JSON uses the same axis names.)
//   granula lint     --log=run.jsonl [--model=giraph|...]
//                    [--tolerance=strict|repair] [--archive-out=fixed.json]
//                    (exit 3 when the log has fatal defects)
//   granula analyze  --archive=run.json [--capacity=128]
//   granula compare  --baseline=a.json --candidate=b.json [--tolerance=0.1]
//                    [--depth=0] [--svg-out=cmp.svg]   (exit 2 on regressions)
//   granula watch    --log=run.live.jsonl --model=giraph|... [--timeout=30]
//                    [--poll-ms=50] [--depth=3] [--capacity=128] [--ansi]
//                    [--quiet] [--archive-out=final.json]
//                    [--stall-timeout=SECONDS] [--alert-log=alerts.jsonl]
//                    [--model-level=0]
//                    (tails a live log while the job runs — a one-job
//                     fleet, job "watch", on a file: source; exit 5 on
//                     timeout, 64 on a bad or negative numeric flag)
//   granula list     [--repo=DIR]          (list saved archives, served
//                    from the repository index without opening bodies)
//   granula query    --repo=DIR [--platform=P] [--algorithm=A]
//                    [--status=complete|incomplete] [--since=UNIXSECS]
//                    [--until=UNIXSECS]
//                    (index-only filter: prints matching entries without
//                     opening a single archive body)
//   granula query    --repo=DIR --name=NAME [--path=ROOT/CHILD/...]
//                    [--findings]
//                    (prints the archive as JSON — the export form;
//                     --path decodes just that operation subtree, the rest
//                     of the body is never parsed; --findings prints the
//                     quarantine section)
//   granula pack     --repo=DIR
//                    (one-way import of a repository written by an older
//                     granula: converts its JSON archive bodies to GBA, the
//                     only body format, atomically per archive; run again
//                     to finish an interrupted pack. --to=json exits 64.)
//   granula serve    --root=DIR [--host=127.0.0.1] [--port=8080]
//                    [--threads=N] [--timeout-ms=5000]
//                    (HTTP query daemon over an archive repository; exit 64
//                     on bad flags, 1 when the bind or repository fails;
//                     SIGINT drains and exits 0)
//   granula fleet    --root=DIR [--host=127.0.0.1] [--port=8090]
//                    [--model=giraph|...] [--threads=N] [--timeout-ms=5000]
//                    [--source=NAME=file:PATH (repeatable)]
//                    [--source=NAME=tcp://HOST:PORT[/PATH] (repeatable)]
//                    [--reconnect-budget=8] [--queue-cap=8192]
//                    [--stall-timeout=SECONDS] [--poll-ms=20]
//                    [--webhook=http://... (repeatable)] [--alert-cmd=SHELL]
//                    [--alert-log=alerts.jsonl] [--alert-retries=4]
//                    [--alert-timeout-ms=1000] [--dead-letter=PATH]
//                    (multi-job supervisor daemon: pulls the named sources —
//                     a tcp:// source GETs PATH, default /, from a feed
//                     with a Range header — accepts pushed batches on POST
//                     /jobs/NAME/records, reports on GET /fleet and /stats,
//                     finalizes every job into the repository; exit 64 on
//                     bad flags, 1 when the bind fails; SIGINT drains open
//                     jobs as incomplete and exits 0)
//   granula feed     --log=run.live.jsonl [--host=127.0.0.1] [--port=7070]
//                    [--poll-ms=5]
//                    (publishes a growing log file to fleet collectors over
//                     HTTP: any GET path, resumed with "Range:
//                     bytes=N-", answered by an endless chunked stream; a
//                     malformed request or Range gets a 400; exit 64 on
//                     bad flags, 1 when the bind fails)
//   granula model    [--name=giraph|powergraph|hadoop|domain]
//   granula table1
//
// Graph specs: datagen:N[,DEG]   (Datagen-like social graph)
//              rmat:SCALE[,EF]   (R-MAT, 2^SCALE vertices)
//              uniform:N,M       (Erdős–Rényi G(n,m))
//              file:PATH         (edge-list text file)
//
// All command logic lives in granula_commands.cc so tests can drive the
// dispatch in-process; this file only adapts argv.

#include <string>
#include <vector>

#include "granula_commands.h"

int main(int argc, char** argv) {
  std::vector<std::string> args(argv + 1, argv + argc);
  return granula::cli::RunGranula(args, stdout, stderr);
}
