package core

import (
	"bytes"
	"context"
	"math"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"heterosgd/internal/nn"
	"heterosgd/internal/transport"
)

// TestClusterAcceptDropsBadDeltas drives RunCluster with a hand-made worker
// whose every completion carries one crafted delta, through both of
// clusterExec.accept's drop branches and the frame check in front of them:
//   - a delta whose own checksum fails inside a valid frame is a
//     "delta-error" incident;
//   - a NaN delta under Guards is a "drop" incident;
//   - in both, DroppedUpdates counts the updates, the global model keeps
//     every bit, and the link stays up, dispatch after dispatch;
//   - a flipped byte in the frame itself never reaches accept: the frame
//     check fails (transport.ErrBadCRC) and the link goes down as a
//     partition.
func TestClusterAcceptDropsBadDeltas(t *testing.T) {
	net0 := nn.MustNetwork(tinySpec().Arch())
	zero := nn.AppendParams(nil, net0.NewParams(nn.InitZero, nil))
	badSum := bytes.Clone(zero)
	badSum[len(badSum)/2] ^= 0x40 // a value byte: the blob's own checksum fails
	nan := net0.NewParams(nn.InitZero, nil)
	nan.Data[3] = math.NaN()
	cases := []struct {
		name      string
		delta     []byte
		flipFrame bool
		kind      string
	}{
		{"blob checksum", badSum, false, "delta-error"},
		{"non-finite", nn.AppendParams(nil, nan), false, "drop"},
		{"frame CRC", zero, true, "partition"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cfg := clusterConfig(AlgHogbatchCPU) // one worker, Guards on
			start := cfg.Net.NewParams(nn.InitXavier, RunRNG(9))
			cfg.InitialParams = start.Clone()
			trans, err := transport.ListenTCP("127.0.0.1:0", 1, ClusterTCPOptions(&cfg, 100*time.Millisecond, 0))
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			var handled atomic.Int64
			done := make(chan struct{})
			go func() {
				defer close(done)
				if c.flipFrame {
					flippingWorker(ctx, trans.Addr(), c.delta, &handled)
					return
				}
				client, err := transport.DialWorker(ctx, trans.Addr(), 0, transport.ClientOptions{Seed: 1})
				if err != nil {
					return
				}
				client.Run(ctx, func(w transport.Work) transport.Done {
					handled.Add(1)
					return transport.Done{Updates: 1, Delta: c.delta}
				})
			}()
			res, err := RunCluster(ctx, cfg, 400*time.Millisecond, trans, ClusterOptions{AttachTimeout: 10 * time.Second})
			cancel()
			<-done
			if err != nil {
				t.Fatal(err)
			}
			for i, v := range res.Params.Data {
				if math.Float64bits(v) != math.Float64bits(start.Data[i]) {
					t.Fatalf("the global model moved at %d: %v, was %v\n%s", i, v, start.Data[i], res.Events)
				}
			}
			n := res.Events.Count(c.kind)
			if n == 0 {
				t.Fatalf("no %q incident\n%s", c.kind, res.Events)
			}
			if c.flipFrame {
				if res.Health.DroppedUpdates != 0 || res.Events.Count("delta-error")+res.Events.Count("drop") != 0 {
					t.Fatalf("a corrupt frame reached accept\n%s", res.Events)
				}
				if !strings.Contains(res.Events.String(), "CRC") {
					t.Fatalf("the partition does not name the frame check\n%s", res.Events)
				}
				return
			}
			if res.Health.DroppedUpdates != int64(n) {
				t.Fatalf("%d %q incidents but %d dropped updates", n, c.kind, res.Health.DroppedUpdates)
			}
			if res.Events.Count("partition") != 0 || handled.Load() < 2 {
				t.Fatalf("the link did not stay up: %d dispatches handled\n%s", handled.Load(), res.Events)
			}
		})
	}
}

// flippingWorker speaks the worker's side of the protocol by hand and
// answers each Work with a Done frame for delta that has one byte flipped
// after its CRC was taken.
func flippingWorker(ctx context.Context, addr string, delta []byte, handled *atomic.Int64) {
	conn, err := (&net.Dialer{}).DialContext(ctx, "tcp", addr)
	if err != nil {
		return
	}
	defer conn.Close()
	go func() { <-ctx.Done(); conn.Close() }()
	if transport.WriteFrame(conn, transport.KindHello, transport.EncodeHello(transport.Hello{Worker: 0})) != nil {
		return
	}
	for {
		kind, payload, err := transport.ReadFrame(conn)
		if err != nil {
			return
		}
		if kind != transport.KindWork {
			continue
		}
		w, err := transport.DecodeWork(payload)
		if err != nil {
			return
		}
		handled.Add(1)
		var frame bytes.Buffer
		transport.WriteFrame(&frame, transport.KindDone, transport.EncodeDone(transport.Done{Worker: 0, Seq: w.Seq, Updates: 1, Delta: delta}))
		b := frame.Bytes()
		b[len(b)/2] ^= 0x01
		if _, err := conn.Write(b); err != nil {
			return
		}
	}
}
