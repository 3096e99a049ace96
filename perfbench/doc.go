// Command perfbench is Sage's end-to-end benchmark. One invocation runs
// one workload in its own process, so process-wide readings (CPU, heap
// allocations, peak RSS) belong to that workload alone:
//
//	bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// run.sh builds the binary from the checkout into .bench_build/ and runs
// it from the checkout root. Inputs derive from --seed only. The last
// stdout line is a JSON object {correct, attempted, failed, metrics};
// the lines before it are the human report: a stamp (nproc, GOMAXPROCS,
// Go version, commit, seed, run length, filesystem of the WAL
// directory), the op ledger per phase, every end-to-end metric with its
// unit, and in a traced run every per-layer metric with the end-to-end
// metric it should move. A failed output check exits 1.
//
// The benchmark drives the system only through its public functions and
// times each layer from outside, at the calls and HTTP handlers it wires
// together; the program's own histograms are read through their
// registries' text exposition.
//
// # Workloads
//
//   - serve: the read path every model consumer pays. One closed-loop
//     client (callers wait for each reply) sends a fixed round of 4 batch
//     predicts of 256 taxi rows (3 to a linear model, 1 to an MLP) and 48
//     point requests (/predict, indexed /features, pre-encoded
//     /provenance) through the gateway to 2 replicas over loopback HTTP.
//     JSON decoding dominates the linear batches and is nearly absent
//     from point requests, so a decoder change should move batch latency
//     and leave point latency flat; a gateway change the reverse.
//   - write-loop: the write path. daemon.Run ticks back to back with the
//     kill/relaunch e2e's publishing settings, a retention window and a
//     WAL on the checkout's disk, pushing to 2 replicas; filling the
//     window is set-up. Afterwards the closed directory is restarted
//     several times. It is the only workload that journals, fsyncs,
//     compacts and recovers, and no read handler runs.
//   - replica-sync: the release path. Each round Publisher.Sync pushes a
//     400-version history (two taxi-LR names, one MLP name) to 2 fresh
//     replicas. Push encode/gzip, transport, decode, digest check and
//     store.Apply are under 1% of write-loop; here they are everything.
//   - eval-sweep: the offline engine. Reduced Fig. 6, Fig. 7 (LR) and
//     Fig. 8 grids with Workers = GOMAXPROCS; no HTTP and no disk. It is
//     the only workload running the experiments scheduler, the workload
//     simulator and the validators' sample-complexity search.
//
// # Metrics
//
// End-to-end (untraced run, every workload): setup_s (median of several
// set-ups: fleet, publish, warm-up, retention fill), ops_per_s,
// cpu_ms_per_op and allocs_per_op (medians over windows of the timed
// phase: 10 serve rounds, one second of ticks, one sync round, one
// sweep) and peak_rss_mb. An op is a request (serve), a tick
// (write-loop), a version applied on a replica (replica-sync) or a
// figure call (eval-sweep). setup_s, ops_per_s and cpu_ms_per_op are
// scaled to a reference machine speed (see calibrate.go and Steadiness
// below); the report prints the raw figures as raw_* beside them, with
// the calibration kernel's median time. The report adds failed_ratio,
// serve's client batch/point p50 and p90 plus the highest percentile
// with at least ten samples beyond it, and write-loop's recovery_s
// (median over restarts of daemon.New + Close). These are printed, not
// gated: they apply to one workload, and the result line carries only
// metrics every workload has.
//
// Per-layer (traced run): the timed phase is split in half, untraced
// then traced, and trace.overhead_share is 1 - traced/untraced
// ops_per_s. Spans are kept in memory and written to .bench_build/ at
// exit. A layer a workload does not exercise reads 0 there. The layer →
// end-to-end map, with the expected direction "a faster layer raises
// ops_per_s and lowers the latency it names":
//
//   - serve: gateway.*_self_ms (gateway handler time minus upstream
//     attempts) → point_p50_ms; gateway.upstream_*_ms, replica.*_ms and
//     transport.*_ms → batch_p50_ms / point_p50_ms; ml.predict_mlp_ms →
//     batch_p90_ms; ml.predict_lin_ms is the floor under
//     replica.batch_ms; gateway.retries should read 0 and
//     gateway.backend_share 0.5. Per class, transport + gateway self +
//     replica = client latency; the remainder is printed.
//   - write-loop: daemon.{ingest,train,retention,compaction}_ms per tick
//     (exact sums of sage_daemon_tick_phase_seconds) → ops_per_s, with
//     the remainder of Run's wall time printed; wal.append_ms,
//     wal.syncfs_ms, wal.cohort_frames → ops_per_s; adaptive.* change
//     only when training decisions change; replica.push_ms;
//     durable.open_ms → recovery_s.
//   - replica-sync: replica.push_ms, replica.push_bytes,
//     publisher.self_ms (Sync wall time minus replica handler time, per
//     push) and store.{encode,canonical,digest}_us (each timed alone over
//     the history) → ops_per_s, cpu_ms_per_op, allocs_per_op.
//   - eval-sweep: experiments.fig{6,7,8}_s → ops_per_s;
//     parallel.busy_share (CPU / (wall × workers)) exposes straggler
//     tails.
//   - every workload: runtime.gc_cpu_share → cpu_ms_per_op.
//
// # Steadiness
//
// The benchmark was sized on a 2-vCPU virtual machine shared with other
// tenants (one L3 cache shared by the whole host). There a fixed CPU
// kernel's time moves by 20-50% from one second to the next and drifts
// by as much over tens of minutes, in thread CPU time as well as wall
// time, and every time metric of every workload moves with it: two sets
// of ten runs of the same code, taken 20 minutes apart, once differed
// by 36% in serve's median ops_per_s. So, from set-up to the end of the
// timed phase, a calibrator thread times a fixed kernel (hashing,
// floating-point arithmetic and sorting from a core's own caches, then
// a random walk through 4 MiB of memory outside the Go heap) every
// 100 ms in its own thread CPU time. setup_s, ops_per_s and
// cpu_ms_per_op are then scaled by the kernel's median time over its
// 14 ms reference, raised to the power 1.25 (the workloads feel a
// change of host speed more than the kernel does), and the kernel's
// own CPU is taken out of cpu_ms_per_op. A program change moves the
// workload and not the kernel, so it shows in the scaled figures; a
// change of host speed moves both and cancels. On two sets of ten
// seeds per workload, run alternately with 15-second runs, the scaling
// took the spread (interquartile range over median) of ops_per_s and
// cpu_ms_per_op from 7-18% raw to 2-7%, and the two sets' medians
// agreed within 2% (setup_s within 9%). It does not see everything: a
// neighbour that keeps the host's idle CPUs busy makes serve's loopback
// round trips faster, which the kernel tracks only in part. The rest of
// the shape follows from the same host:
//
//   - one closed-loop client, and no workload drives load from more
//     goroutines than there are CPUs: multi-client loops on 2 cores
//     mostly measure the scheduler;
//   - rates are medians over windows, so one burst moves one window;
//   - no gated millisecond-scale makespan, no open-loop ops_per_s (it
//     equals the offered rate) and no single-shot recovery time;
//     latency percentiles and recovery_s are reported but not gated;
//   - every set-up is repeated and its median reported;
//   - write-loop keeps a retention window, without which each tick's
//     cost and the process's memory grow for the whole run; the
//     daemon's own defaults publish nothing at this scale, so the e2e's
//     publishing settings are used;
//   - eval-sweep seeds sweep k from (seed, k): a figure's work depends on
//     its seed, so repeating one seed made runs with different seeds
//     differ by 20% in CPU per op;
//   - tried and dropped for lack of a measured gain: 20-second runs
//     without scaling (the drift is slower than a run), a kernel timed
//     once per run or once per window (too few samples: its own noise
//     outweighed the drift it removed), scaling each window by the
//     kernel run next to it (no correlation at one-second scale),
//     collecting garbage between replica-sync rounds.
package main
