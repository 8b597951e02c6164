// Command skclient is an interactive CLI client for a skserver replica:
//
//	skclient -addr 127.0.0.1:2181 -variant securekeeper create /a hello
//	skclient get /a
//	skclient ls /
//	skclient set /a world
//	skclient cas /a 3 world2     (atomic Check+Set multi: version guard)
//	skclient delete /a
//	skclient watch /a            (blocks until the watch handle fires)
//	skclient info                (serving replica: role, leader, zxid, load, lag)
//	skclient mntr                (ZooKeeper-style metrics dump, key<TAB>value)
//	skclient digest /            (deterministic recursive tree digest)
//	skclient verify < paths.txt  (assert every listed path exists)
//	skclient burst /p 200 64     (write burst with an ACK-per-write ledger)
//
// digest, verify and burst are the crash-consistency harness's
// instruments: burst emits a ledger of acknowledged writes while
// replicas are being SIGKILLed, digest fingerprints a replica's tree
// for recovered-vs-survivor comparison, and verify checks the ledger
// against the recovered ensemble.
//
// -addr accepts a comma-separated list of replica addresses, tried in
// shuffled order with failover, so a command keeps working while part
// of a multi-process ensemble is down. -prefer steers which member
// serves the session: "nearest" (default) takes the first reachable
// one, "leader" insists on the leader, "observer" insists on a
// non-voting observer:
//
//	skclient -addr 127.0.0.1:2181,127.0.0.1:2182,127.0.0.1:2183 -prefer leader get /a
//
// -timeout bounds the whole command through the client API's
// context.Context plumbing; an unreachable ensemble fails the command
// instead of hanging it.
//
// For tls/securekeeper variants the client runs the secure-channel
// handshake. The demo accepts any server identity; a production client
// pins the enclave's public key received out of band (§4.1).
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"securekeeper/internal/client"
	"securekeeper/internal/wire"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "skclient:", err)
		os.Exit(1)
	}
}

func run() error {
	addr := flag.String("addr", "127.0.0.1:2181", "replica address, or a comma-separated list tried with failover")
	variant := flag.String("variant", "securekeeper", "vanilla, tls or securekeeper (must match the server)")
	prefer := flag.String("prefer", "nearest", "session placement: nearest, leader or observer")
	timeout := flag.Duration("timeout", 30*time.Second, "deadline for the whole command (0 = none)")
	flag.Parse()
	args := flag.Args()
	if len(args) < 1 {
		return fmt.Errorf("usage: skclient [-addr host:port[,host:port...]] [-variant v] [-prefer p] [-timeout d] <create|get|set|cas|delete|ls|stat|info|mntr|reconfig|sync|watch|digest|verify|burst> [path] [args...]")
	}

	opts, err := dialOptions(*variant, *prefer)
	if err != nil {
		return err
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	// burst manages its own connections (it survives replica crashes by
	// redialing mid-run), so it bypasses the single-session setup.
	if args[0] == "burst" {
		return runBurst(ctx, strings.Split(*addr, ","), opts, args[1:])
	}

	cl, err := client.Dial(ctx, strings.Split(*addr, ","), opts)
	if err != nil {
		return err
	}
	defer cl.Close()

	return execute(ctx, cl, args)
}

// dialOptions maps the -variant and -prefer flags onto the client
// library's Dial options. The demo accepts any server identity; a
// production client sets VerifyPeer to pin the enclave key (§4.1).
func dialOptions(variant, prefer string) (client.Options, error) {
	opts := client.Options{Secure: variant != "vanilla"}
	switch prefer {
	case "nearest", "":
		opts.ReadPreference = client.Nearest
	case "leader":
		opts.ReadPreference = client.Leader
	case "observer":
		opts.ReadPreference = client.ObserverOnly
	default:
		return opts, fmt.Errorf("unknown -prefer %q (want nearest, leader or observer)", prefer)
	}
	return opts, nil
}

func execute(ctx context.Context, cl *client.Client, args []string) error {
	cmd := args[0]
	path := "/"
	if len(args) > 1 {
		path = args[1]
	}
	switch cmd {
	case "create":
		var data []byte
		if len(args) > 2 {
			data = []byte(args[2])
		}
		created, err := cl.Create(ctx, path, data, 0)
		if err != nil {
			return err
		}
		fmt.Println("created", created)
	case "createseq":
		var data []byte
		if len(args) > 2 {
			data = []byte(args[2])
		}
		created, err := cl.Create(ctx, path, data, wire.FlagSequential)
		if err != nil {
			return err
		}
		fmt.Println("created", created)
	case "get":
		data, stat, err := cl.Get(ctx, path)
		if err != nil {
			return err
		}
		fmt.Printf("%s (version %d, %d bytes)\n", data, stat.Version, stat.DataLength)
	case "set":
		if len(args) < 3 {
			return fmt.Errorf("set needs <path> <data>")
		}
		stat, err := cl.Set(ctx, path, []byte(args[2]), -1)
		if err != nil {
			return err
		}
		fmt.Println("ok, version", stat.Version)
	case "cas":
		// Atomic compare-and-set through a Check+Set multi: both ops
		// commit under one zxid or the transaction aborts untouched.
		if len(args) < 4 {
			return fmt.Errorf("cas needs <path> <expected-version> <data>")
		}
		version, err := strconv.ParseInt(args[2], 10, 32)
		if err != nil {
			return fmt.Errorf("parse version: %w", err)
		}
		results, err := cl.Txn().
			Check(path, int32(version)).
			Set(path, []byte(args[3]), -1).
			Commit(ctx)
		if err != nil {
			for i, r := range results {
				fmt.Printf("op %d (%s): %s\n", i, r.Op, r.Err)
			}
			return err
		}
		fmt.Println("ok, version", results[1].Stat.Version)
	case "delete":
		if err := cl.Delete(ctx, path, -1); err != nil {
			return err
		}
		fmt.Println("deleted", path)
	case "ls":
		kids, err := cl.Children(ctx, path)
		if err != nil {
			return err
		}
		for _, k := range kids {
			fmt.Println(k)
		}
	case "stat":
		stat, err := cl.Exists(ctx, path)
		if err != nil {
			return err
		}
		fmt.Printf("version=%d cversion=%d children=%d bytes=%d ephemeralOwner=%s\n",
			stat.Version, stat.Cversion, stat.NumChildren, stat.DataLength,
			strconv.FormatInt(stat.EphemeralOwner, 16))
	case "info":
		// Machine-readable replica stats: smoke scripts parse this line
		// instead of grepping server logs for role transitions.
		st, err := cl.ServerStats(ctx)
		if err != nil {
			return err
		}
		fmt.Printf("role=%s leader=%d zxid=%d sessions=%d watches=%d outstanding=%d uptime=%ds lag=%d ensemble=%q\n",
			st.Role, st.Leader, st.Zxid, st.Sessions, st.Watches, st.Outstanding,
			st.UptimeSeconds, st.CommitLag, st.Ensemble)
	case "mntr":
		// ZooKeeper-style four-letter-word dump: one key<TAB>value line
		// per metric, rendered from the replica's own registry snapshot
		// carried in the stats response. Works against any member, voter
		// or observer.
		st, err := cl.ServerStats(ctx)
		if err != nil {
			return err
		}
		fmt.Printf("sk_role\t%s\n", st.Role)
		fmt.Printf("sk_leader\t%d\n", st.Leader)
		fmt.Printf("sk_zxid\t%d\n", st.Zxid)
		fmt.Printf("sk_uptime_seconds\t%d\n", st.UptimeSeconds)
		fmt.Printf("sk_commit_lag\t%d\n", st.CommitLag)
		for _, kv := range st.Metrics {
			fmt.Printf("%s\t%d\n", kv.Key, kv.Value)
		}
	case "reconfig":
		// Incremental membership change: add <id> <addr> joins a new
		// observer, promote <id> makes a synced observer a voter,
		// remove <id> drops a member. Routed through the leader and the
		// agreed log like any write.
		if len(args) < 3 {
			return fmt.Errorf("reconfig needs <add|remove|promote> <id> [addr]")
		}
		id, err := strconv.ParseInt(args[2], 10, 64)
		if err != nil {
			return fmt.Errorf("parse id: %w", err)
		}
		addr := ""
		if len(args) > 3 {
			addr = args[3]
		}
		resp, err := cl.Reconfig(ctx, args[1], id, addr)
		if err != nil {
			return err
		}
		fmt.Printf("reconfig ok zxid=%d ensemble=%q\n", resp.Zxid, resp.Ensemble)
	case "sync":
		if err := cl.Sync(ctx, path); err != nil {
			return err
		}
		fmt.Println("synced", path)
	case "watch":
		_, _, w, err := cl.GetW(ctx, path)
		if err != nil && !isNoNode(err) {
			return err
		}
		fmt.Println("watching", path, "...")
		select {
		case ev, ok := <-w.Events():
			if !ok {
				return fmt.Errorf("session ended before the watch fired")
			}
			fmt.Printf("event: %v on %s\n", ev.Type, ev.Path)
		case <-ctx.Done():
			return ctx.Err()
		}
	case "digest":
		// Deterministic recursive tree digest: path, version and data of
		// every node under <path>, visited in sorted order. Two replicas
		// holding the same tree print the same line — the crash harness
		// compares a recovered replica against a survivor with it.
		h := fnv.New64a()
		nodes := 0
		var walk func(p string) error
		walk = func(p string) error {
			// The root predates any session (under SecureKeeper its
			// empty data was never enclave-encrypted, so a Get would
			// fail integrity); only its subtree carries state.
			if p != "/" {
				data, stat, err := cl.Get(ctx, p)
				if err != nil {
					if isNoNode(err) {
						return nil // deleted between listing and visit
					}
					return err
				}
				nodes++
				fmt.Fprintf(h, "%s|%d|", p, stat.Version)
				h.Write(data)
				h.Write([]byte{0})
			}
			kids, err := cl.Children(ctx, p)
			if err != nil {
				if isNoNode(err) {
					return nil
				}
				return err
			}
			sort.Strings(kids)
			for _, k := range kids {
				child := p + "/" + k
				if p == "/" {
					child = "/" + k
				}
				if err := walk(child); err != nil {
					return err
				}
			}
			return nil
		}
		if err := walk(path); err != nil {
			return err
		}
		fmt.Printf("digest %016x nodes=%d\n", h.Sum64(), nodes)
	case "verify":
		// Read paths (one per line) from stdin and check each exists —
		// the harness feeds it the burst's acknowledged-write ledger.
		sc := bufio.NewScanner(os.Stdin)
		checked, missing := 0, 0
		for sc.Scan() {
			p := strings.TrimSpace(sc.Text())
			if p == "" {
				continue
			}
			checked++
			if _, err := cl.Exists(ctx, p); err != nil {
				if isNoNode(err) {
					fmt.Println("MISSING", p)
					missing++
					continue
				}
				return err
			}
		}
		if err := sc.Err(); err != nil {
			return err
		}
		fmt.Printf("verified %d missing %d\n", checked, missing)
		if missing > 0 {
			return fmt.Errorf("%d acknowledged writes missing", missing)
		}
	default:
		return fmt.Errorf("unknown command %q", cmd)
	}
	return nil
}

// electionSpan bounds how long burst keeps retrying one write that the
// ensemble answered with CONNECTIONLOSS: long enough to cover the
// election that follows a leader's death.
const electionSpan = 15 * time.Second

// fate classifies one create attempt of a burst as the ledger records
// it: "ACK", "MAYBE" or "LOST", or "" when the write is not settled and
// is tried again, on a new session if redial is set. retried says an
// earlier attempt of the same create went unanswered, so a node found
// already there may be that attempt's write: reached consensus, never
// acknowledged to us, and so not covered by the durability contract.
func fate(err error, retried bool) (f string, redial bool) {
	var pe *wire.ProtocolError
	switch {
	case err == nil:
		return "ACK", false
	case !errors.As(err, &pe):
		return "", true // the session broke: redial a surviving replica
	case pe.Code == wire.ErrConnectionLoss:
		return "", false // the replica lost its leader: retry through the election
	case pe.Code == wire.ErrNodeExists && retried:
		return "MAYBE", false
	default:
		return "LOST", false // rejected for a structural reason
	}
}

// runBurst writes <count> nodes under <prefix>, printing an "ACK
// <path>" ledger line for every write the ensemble acknowledged. The
// crash harness SIGKILLs replicas while this runs, so an unanswered
// write is retried (see fate) until electionSpan has passed, or until
// six dials in a row found no replica. Burst always exits 0 once
// arguments parse: the ledger, not the exit code, is the result.
func runBurst(ctx context.Context, addrs []string, opts client.Options, args []string) error {
	if len(args) < 2 {
		return fmt.Errorf("burst needs <prefix> <count> [payload-bytes]")
	}
	prefix := strings.TrimSuffix(args[0], "/")
	count, err := strconv.Atoi(args[1])
	if err != nil || count <= 0 {
		return fmt.Errorf("parse count: %v", args[1])
	}
	payload := 32
	if len(args) > 2 {
		if payload, err = strconv.Atoi(args[2]); err != nil || payload < 0 {
			return fmt.Errorf("parse payload-bytes: %v", args[2])
		}
	}

	var cl *client.Client
	disconnect := func() {
		if cl != nil {
			_ = cl.Close()
			cl = nil
		}
	}
	defer disconnect()
	connect := func() error {
		disconnect()
		c, err := client.Dial(ctx, addrs, opts)
		if err != nil {
			return err
		}
		cl = c
		return nil
	}

	// tryOp runs one create with redial-retry; returns its ledger fate.
	tryOp := func(path string, data []byte) string {
		retried := false
		deadline := time.Now().Add(electionSpan)
		for dials := 0; dials < 6 && ctx.Err() == nil && time.Now().Before(deadline); {
			if cl == nil {
				if err := connect(); err != nil {
					dials++
					time.Sleep(200 * time.Millisecond)
					continue
				}
				dials = 0
			}
			_, err := cl.Create(ctx, path, data, 0)
			f, redial := fate(err, retried)
			if f != "" {
				return f
			}
			retried = true
			if redial {
				disconnect()
			}
			time.Sleep(200 * time.Millisecond)
		}
		return "LOST"
	}

	// The prefix node itself is not part of the ledger.
	if prefix != "" {
		_ = tryOp(prefix, nil)
	}

	acked, maybes, lost, failStreak := 0, 0, 0, 0
	for i := 0; i < count && ctx.Err() == nil; i++ {
		path := fmt.Sprintf("%s/b%06d", prefix, i)
		data := make([]byte, payload)
		for j := range data {
			data[j] = byte(i + j)
		}
		switch tryOp(path, data) {
		case "ACK":
			fmt.Println("ACK", path)
			acked++
			failStreak = 0
		case "MAYBE":
			fmt.Println("MAYBE", path)
			maybes++
			failStreak = 0
		default:
			fmt.Println("LOST", path)
			lost++
			// The whole ensemble is probably down (the whole-ensemble
			// crash leg): stop burning retry time.
			if failStreak++; failStreak >= 3 {
				fmt.Println("BURST aborting: ensemble unreachable")
				i = count
			}
		}
	}
	fmt.Printf("BURST acked=%d maybe=%d lost=%d of %d\n", acked, maybes, lost, count)
	return nil
}

func isNoNode(err error) bool {
	var pe *wire.ProtocolError
	return errors.As(err, &pe) && pe.Code == wire.ErrNoNode
}
