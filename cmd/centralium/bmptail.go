package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"sync"
	"syscall"

	"centralium/internal/telemetry"
)

// bmptailCmd listens for BMP-style streams from exporters (or replays from
// tapped emulation runs piped over TCP), prints events as they arrive, and
// flags funneling, NHG pressure, route churn and black-hole suspicion as
// they happen. It follows until SIGINT/SIGTERM or -count events; the
// listening address and the closing summary go to stderr.
func bmptailCmd(fs *flag.FlagSet) runFunc {
	var (
		listen  = fs.String("listen", "127.0.0.1:11019", "TCP address to accept exporter streams on")
		jsonOut = jsonFlag(fs)
		count   = fs.Uint64("count", 0, "exit after this many events (0 = follow forever)")
		quiet   = fs.Bool("quiet", false, "print alerts only, not every event")
	)
	return func(_ string, stdout, stderr io.Writer) error {
		ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
		defer stop()

		// Streams are drained one goroutine per connection and the
		// callbacks run on them: mu orders the lines on stdout and the
		// event count.
		var (
			mu   sync.Mutex
			seen uint64
			done = make(chan struct{})
			enc  = json.NewEncoder(stdout)
		)
		c := telemetry.NewCollector(telemetry.CollectorOptions{
			OnEvent: func(ev telemetry.Event) {
				mu.Lock()
				defer mu.Unlock()
				if !*quiet {
					if *jsonOut {
						enc.Encode(struct {
							telemetry.Event
							Type string `json:"type"`
						}{ev, "event"})
					} else {
						printEvent(stdout, ev)
					}
				}
				if seen++; seen == *count {
					close(done)
				}
			},
			OnAlert: func(a telemetry.Alert) {
				mu.Lock()
				defer mu.Unlock()
				if *jsonOut {
					enc.Encode(struct {
						telemetry.Alert
						Type string `json:"type"`
					}{a, "alert"})
				} else {
					fmt.Fprintf(stdout, "ALERT %s\n", a)
				}
			},
		})
		addr, err := c.Start(*listen)
		if err != nil {
			return err
		}
		fmt.Fprintf(stderr, "bmptail: listening on %s\n", addr)

		select {
		case <-ctx.Done():
		case <-done:
		}
		c.Close()

		fmt.Fprintf(stderr, "bmptail: %d events from %d device(s), %d alert(s)\n",
			c.EventCount(), len(c.Devices()), len(c.Alerts()))
		return nil
	}
}

func printEvent(w io.Writer, ev telemetry.Event) {
	switch ev.Kind {
	case telemetry.KindSessionUp, telemetry.KindSessionDown:
		fmt.Fprintf(w, "%d %-14s %s session=%s peer=%s asn=%d\n",
			ev.Time, ev.Kind, ev.Device, ev.Session, ev.Peer, ev.PeerASN)
	case telemetry.KindAdjRIBIn, telemetry.KindBestPath:
		verb := "update"
		if ev.Withdraw {
			verb = "withdraw"
		}
		fmt.Fprintf(w, "%d %-14s %s %s %s path=%v\n",
			ev.Time, ev.Kind, ev.Device, verb, ev.Prefix, ev.ASPath)
	case telemetry.KindFIBWrite:
		fmt.Fprintf(w, "%d %-14s %s %s entries=%d nhg=%d/%d churn=%d overflows=%d warm=%v\n",
			ev.Time, ev.Kind, ev.Device, ev.Prefix,
			ev.FIBEntries, ev.NHGroups, ev.NHGLimit, ev.NHGChurn, ev.Overflows, ev.Warm)
	case telemetry.KindRPAHit:
		fmt.Fprintf(w, "%d %-14s %s %s statement=%s\n", ev.Time, ev.Kind, ev.Device, ev.Prefix, ev.Statement)
	case telemetry.KindTrafficSample:
		fmt.Fprintf(w, "%d %-14s %s share=%.4f fair=%.4f blackholed=%.4f\n",
			ev.Time, ev.Kind, ev.Device, ev.Share, ev.FairShare, ev.Blackholed)
	default:
		fmt.Fprintf(w, "%d %-14s %s\n", ev.Time, ev.Kind, ev.Device)
	}
}
