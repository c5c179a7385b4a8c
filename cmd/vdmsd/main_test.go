package main

import (
	"bufio"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"vdtuner/internal/server"
	"vdtuner/internal/vdms"
)

// buildDaemon compiles vdmsd once per test binary.
func buildDaemon(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "vdmsd")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("building vdmsd: %v\n%s", err, out)
	}
	return bin
}

// daemon is one running vdmsd process.
type daemon struct {
	cmd  *exec.Cmd
	addr string
}

// startDaemon launches vdmsd on an ephemeral port and waits for its
// listening line.
func startDaemon(t *testing.T, bin string, args ...string) *daemon {
	t.Helper()
	cmd := exec.Command(bin, append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(stdout)
	addrCh := make(chan string, 1)
	go func() {
		for sc.Scan() {
			line := sc.Text()
			if strings.HasPrefix(line, "vdmsd listening on ") {
				rest := strings.TrimPrefix(line, "vdmsd listening on ")
				if i := strings.IndexByte(rest, ' '); i > 0 {
					addrCh <- rest[:i]
				}
			}
		}
	}()
	select {
	case addr := <-addrCh:
		return &daemon{cmd: cmd, addr: addr}
	case <-time.After(30 * time.Second):
		cmd.Process.Kill()
		t.Fatal("vdmsd did not report a listening address")
		return nil
	}
}

func dialDaemon(t *testing.T, addr string) *server.Client {
	t.Helper()
	var cl *server.Client
	var err error
	for i := 0; i < 100; i++ {
		cl, err = server.Dial(addr)
		if err == nil {
			return cl
		}
		time.Sleep(50 * time.Millisecond)
	}
	t.Fatalf("dialing %s: %v", addr, err)
	return nil
}

// writeConfig writes a -config file holding body and returns its path.
func writeConfig(t *testing.T, body string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "config.json")
	if err := os.WriteFile(path, []byte(body), 0o666); err != nil {
		t.Fatal(err)
	}
	return path
}

func waitExit(t *testing.T, d *daemon) {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- d.cmd.Wait() }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		d.cmd.Process.Kill()
		t.Fatal("vdmsd did not exit")
	}
}

// TestDaemonFlagValidation: out-of-range flags, and a -config file that
// cannot be read, names an unknown key or holds an out-of-range value,
// must be usage errors (exit code 2, message on stderr) before any
// collection state is created — not a half-started daemon, a data
// directory, or a late engine error.
func TestDaemonFlagValidation(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a real daemon")
	}
	bin := buildDaemon(t)
	config := func(body string) []string { return []string{"-config", writeConfig(t, body)} }
	cases := []struct {
		name string
		args []string
	}{
		{"dim", []string{"-dim", "0"}},
		{"negative-dim", []string{"-dim", "-3"}},
		{"expected-rows", []string{"-expected-rows", "0"}},
		{"config-unreadable", []string{"-config", filepath.Join(t.TempDir(), "missing.json")}},
		{"config-unknown-key", config(`{"ShardCount": 2}`)},
		{"config-malformed", config(`{"nlist": 32`)},
		{"shards-low", config(`{"shard_count": -1}`)},
		{"shards-high", config(`{"shard_count": 17}`)},
		{"compact-ratio", config(`{"compaction_triggerRatio": 1.5}`)},
		{"compact-fanin", config(`{"compaction_mergeFanIn": 1}`)},
		{"compact-workers", config(`{"compaction_parallelism": 99}`)},
		{"wal-group", config(`{"wal_groupCommit": 4096}`)},
		{"metric", []string{"-metric", "cosineish"}},
		{"index", config(`{"index_type": "BTREE"}`)},
		{"max-request-bytes", []string{"-max-request-bytes", "0"}},
		{"negative-max-request-bytes", []string{"-max-request-bytes", "-1"}},
		{"idle-timeout", []string{"-idle-timeout", "-5s"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := filepath.Join(t.TempDir(), "data")
			cmd := exec.Command(bin, append([]string{"-addr", "127.0.0.1:0", "-data-dir", dir}, tc.args...)...)
			out, err := cmd.CombinedOutput()
			ee, ok := err.(*exec.ExitError)
			if !ok {
				t.Fatalf("daemon with %v did not exit with an error (output %q)", tc.args, out)
			}
			if code := ee.ExitCode(); code != 2 {
				t.Fatalf("daemon with %v exited %d, want usage error 2 (output %q)", tc.args, code, out)
			}
			if !strings.Contains(string(out), "vdmsd:") || !strings.Contains(string(out), "Usage") {
				t.Fatalf("usage error output missing diagnostic or usage text: %q", out)
			}
			if _, err := os.Stat(dir); !os.IsNotExist(err) {
				t.Fatalf("daemon with %v created its data directory before refusing (stat: %v)", tc.args, err)
			}
		})
	}
}

// TestDaemonBinaryProtocol: a real vdmsd process serves the binary
// pipelined protocol on the same port as JSON, and enforces
// -max-request-bytes on both.
func TestDaemonBinaryProtocol(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a real daemon")
	}
	bin := buildDaemon(t)
	d := startDaemon(t, bin, "-config", writeConfig(t, `{"index_type": "FLAT"}`), "-metric", "l2", "-dim", "4",
		"-expected-rows", "1000", "-max-request-bytes", "4096")
	defer func() {
		d.cmd.Process.Signal(syscall.SIGTERM)
		waitExit(t, d)
	}()

	jcl := dialDaemon(t, d.addr)
	defer jcl.Close()
	bcl, err := server.DialBinary(d.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer bcl.Close()

	// Insert over binary, read back over JSON — one engine, two wires.
	ids, err := bcl.Insert([][]float32{{1, 2, 3, 4}, {5, 6, 7, 8}})
	if err != nil {
		t.Fatal(err)
	}
	hits, err := jcl.Search([]float32{5, 6, 7, 8}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) == 0 || hits[0].ID != ids[1] || hits[0].Dist != 0 {
		t.Fatalf("binary insert not visible over JSON: %+v", hits)
	}

	// The daemon's request cap holds on the binary wire: ~4KB limit,
	// ~16KB insert.
	var big [][]float32
	for i := 0; i < 1000; i++ {
		big = append(big, []float32{float32(i), 0, 0, 1})
	}
	if _, err := bcl.Insert(big); err == nil {
		t.Fatal("oversized binary insert accepted by daemon")
	} else if !strings.Contains(err.Error(), "limit") {
		t.Fatalf("oversize error does not name the limit: %v", err)
	}
	// And on the JSON wire, without killing the daemon for other clients.
	if _, err := jcl.Insert(big); err == nil {
		t.Fatal("oversized JSON insert accepted by daemon")
	}
	jcl2 := dialDaemon(t, d.addr)
	defer jcl2.Close()
	if err := jcl2.Ping(); err != nil {
		t.Fatalf("daemon dead after oversized requests: %v", err)
	}
}

// TestDaemonKillRecovery is the no-acknowledged-insert-lost gate: under
// wal_fsyncPolicy 3 (always), inserts acknowledged over the wire must survive a hard
// SIGKILL (no shutdown handler runs) and be served after a restart from
// the same data directory.
func TestDaemonKillRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and kills a real daemon")
	}
	bin := buildDaemon(t)
	dir := t.TempDir()
	args := []string{"-data-dir", dir, "-config", writeConfig(t, `{"index_type": "FLAT", "wal_fsyncPolicy": 3}`), "-metric", "l2", "-dim", "4", "-expected-rows", "1000"}

	d := startDaemon(t, bin, args...)
	cl := dialDaemon(t, d.addr)
	var vecs [][]float32
	for i := 0; i < 25; i++ {
		vecs = append(vecs, []float32{float32(i), float32(i * 2), float32(i * 3), 1})
	}
	ids, err := cl.Insert(vecs)
	if err != nil {
		t.Fatal(err)
	}
	cl.Close()
	// Hard crash: SIGKILL, no graceful shutdown path runs.
	if err := d.cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	waitExit(t, d)

	d2 := startDaemon(t, bin, args...)
	defer func() {
		d2.cmd.Process.Signal(syscall.SIGTERM)
		waitExit(t, d2)
	}()
	cl2 := dialDaemon(t, d2.addr)
	defer cl2.Close()
	st, err := cl2.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Rows != int64(len(vecs)) {
		t.Fatalf("after SIGKILL restart: %d rows, want %d acknowledged inserts", st.Rows, len(vecs))
	}
	for i, v := range vecs {
		hits, err := cl2.Search(v, 1)
		if err != nil {
			t.Fatal(err)
		}
		if len(hits) == 0 || hits[0].ID != ids[i] || hits[0].Dist != 0 {
			t.Fatalf("acknowledged insert %d lost: %+v", ids[i], hits)
		}
	}
}

// TestDaemonGracefulShutdown: under wal_fsyncPolicy 1 (never) nothing is synced per
// op, but SIGTERM's graceful shutdown (final WAL sync + snapshot) still
// preserves everything, growing tail included.
func TestDaemonGracefulShutdown(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and restarts a real daemon")
	}
	bin := buildDaemon(t)
	dir := t.TempDir()
	args := []string{"-data-dir", dir, "-config", writeConfig(t, `{"index_type": "FLAT", "wal_fsyncPolicy": 1}`), "-metric", "l2", "-dim", "4", "-expected-rows", "1000"}

	d := startDaemon(t, bin, args...)
	cl := dialDaemon(t, d.addr)
	ids, err := cl.Insert([][]float32{{1, 2, 3, 4}, {5, 6, 7, 8}})
	if err != nil {
		t.Fatal(err)
	}
	cl.Close()
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	waitExit(t, d)
	if !d.cmd.ProcessState.Success() {
		t.Fatalf("graceful shutdown exited with %v", d.cmd.ProcessState)
	}

	d2 := startDaemon(t, bin, args...)
	defer func() {
		d2.cmd.Process.Signal(syscall.SIGTERM)
		waitExit(t, d2)
	}()
	cl2 := dialDaemon(t, d2.addr)
	defer cl2.Close()
	hits, err := cl2.Search([]float32{5, 6, 7, 8}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) == 0 || hits[0].ID != ids[1] || hits[0].Dist != 0 {
		t.Fatalf("graceful shutdown lost data: %+v", hits)
	}
}

// TestDaemonOnlineReshard: a data directory created at one shard count is
// resharded through the wire ("reconfigure" op) instead of at open. After
// a graceful restart without -config the directory serves the NEW count
// at the reshard's generation, proving the generation actually committed.
func TestDaemonOnlineReshard(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and restarts a real daemon")
	}
	bin := buildDaemon(t)
	dir := t.TempDir()
	base := []string{"-data-dir", dir, "-metric", "l2", "-dim", "4", "-expected-rows", "1000"}

	d := startDaemon(t, bin, append([]string{"-config", writeConfig(t, `{"index_type": "FLAT", "wal_fsyncPolicy": 3, "shard_count": 1}`)}, base...)...)
	cl := dialDaemon(t, d.addr)
	var vecs [][]float32
	for i := 0; i < 40; i++ {
		vecs = append(vecs, []float32{float32(i), float32(i % 7), float32(i % 3), 1})
	}
	ids, err := cl.Insert(vecs)
	if err != nil {
		t.Fatal(err)
	}

	cfg, gen, err := cl.Config()
	if err != nil {
		t.Fatal(err)
	}
	if gen != 0 {
		t.Fatalf("fresh daemon at generation %d", gen)
	}
	target := *cfg
	target.ShardCount = 4
	gen, err = cl.Reconfigure(target)
	if err != nil {
		t.Fatalf("online reshard failed: %v", err)
	}
	if gen != 1 {
		t.Fatalf("reshard produced generation %d, want 1", gen)
	}
	st, err := cl.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.ShardCount != 4 || st.Rows != int64(len(vecs)) {
		t.Fatalf("after reshard: %d shards, %d rows", st.ShardCount, st.Rows)
	}
	cl.Close()
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	waitExit(t, d)

	// Restarted without -config, the directory serves the count it
	// recorded, and every row survived the reshard + restart.
	d2 := startDaemon(t, bin, base...)
	defer func() {
		d2.cmd.Process.Signal(syscall.SIGTERM)
		waitExit(t, d2)
	}()
	cl2 := dialDaemon(t, d2.addr)
	defer cl2.Close()
	st2, err := cl2.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st2.Rows != int64(len(vecs)) || st2.ShardCount != 4 || st2.ConfigGeneration != 1 {
		t.Fatalf("restart after reshard: %d rows over %d shards at generation %d, want %d over 4 at 1",
			st2.Rows, st2.ShardCount, st2.ConfigGeneration, len(vecs))
	}
	for i := 0; i < len(vecs); i += 8 {
		hits, err := cl2.Search(vecs[i], 1)
		if err != nil {
			t.Fatal(err)
		}
		if len(hits) == 0 || hits[0].ID != ids[i] || hits[0].Dist != 0 {
			t.Fatalf("row %d lost across reshard: %+v", ids[i], hits)
		}
	}
}

// TestDaemonRestartServesRecordedConfig: a durable daemon started from a
// -config file and cold-reconfigured over the wire (nlist, shard_count)
// restarts without -config at the configuration it recorded, every row
// intact; restarted with the original -config, it reconfigures back
// through Reconfigure and reports the next generation.
func TestDaemonRestartServesRecordedConfig(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and restarts a real daemon")
	}
	bin := buildDaemon(t)
	base := []string{"-data-dir", t.TempDir(), "-metric", "l2", "-dim", "4", "-expected-rows", "1000"}
	path := writeConfig(t, `{"index_type": "IVF_FLAT", "nlist": 16, "nprobe": 16, "wal_fsyncPolicy": 3}`)
	launch, err := loadConfig(path)
	if err != nil {
		t.Fatal(err)
	}
	withConfig := append([]string{"-config", path}, base...)
	var vecs [][]float32
	for i := 0; i < 60; i++ {
		vecs = append(vecs, []float32{float32(i), float32(i % 7), float32(i % 3), 1})
	}

	// serve starts a daemon, checks the configuration and generation it
	// serves and that every row is there at distance zero, and stops it
	// with SIGTERM.
	var ids []int64
	serve := func(args []string, want vdms.Config, wantGen uint64, script func(*server.Client)) {
		t.Helper()
		d := startDaemon(t, bin, args...)
		cl := dialDaemon(t, d.addr)
		if script != nil {
			script(cl)
		}
		cfg, gen, err := cl.Config()
		if err != nil {
			t.Fatal(err)
		}
		if *cfg != want || gen != wantGen {
			t.Fatalf("serving %+v at generation %d, want %+v at %d", *cfg, gen, want, wantGen)
		}
		st, err := cl.Stats()
		if err != nil {
			t.Fatal(err)
		}
		if st.Rows != int64(len(vecs)) || st.ShardCount != want.ShardCount {
			t.Fatalf("%d rows over %d shards, want %d over %d", st.Rows, st.ShardCount, len(vecs), want.ShardCount)
		}
		for i, v := range vecs {
			hits, err := cl.Search(v, 1)
			if err != nil {
				t.Fatal(err)
			}
			if len(hits) == 0 || hits[0].ID != ids[i] || hits[0].Dist != 0 {
				t.Fatalf("row %d lost: %+v", ids[i], hits)
			}
		}
		cl.Close()
		if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
			t.Fatal(err)
		}
		waitExit(t, d)
	}

	cold := launch
	cold.Build.NList = 32
	cold.ShardCount = 2
	serve(withConfig, cold, 1, func(cl *server.Client) {
		var err error
		if ids, err = cl.Insert(vecs); err != nil {
			t.Fatal(err)
		}
		if _, err := cl.Reconfigure(cold); err != nil {
			t.Fatalf("cold reconfigure: %v", err)
		}
	})
	serve(base, cold, 1, nil)
	serve(withConfig, launch, 2, nil)
}
