package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sync"
	"time"

	"ebbiot/internal/events"
	"ebbiot/internal/ingest"
)

// The ingest generator runs in its own process, so the server's rusage
// and allocation counts exclude it. It is this binary re-executed with
// roleEnv set; it reads the recording named by inputEnv once and then
// serves one command per stdin line, answering each with a report line.
const (
	roleEnv  = "PERFBENCH_ROLE"
	inputEnv = "PERFBENCH_INPUT"
)

// genCommand asks the generator to stream the recording once over one
// connection per stream ID. With Speed > 0 batch k of stream i is sent
// open loop at T0 + i·tF/(2·Speed) + (k+1)·tF/Speed: the sensors run on
// independent clocks, half a frame apart, rather than in lockstep.
// Otherwise it sends as fast as the sink accepts.
type genCommand struct {
	Addr  string   `json:"addr"`
	IDs   []string `json:"ids"`
	T0    int64    `json:"t0_unix_ns"`
	Speed float64  `json:"speed"`
}

// genReport is the generator's account of one command.
type genReport struct {
	Err string `json:"err,omitempty"`
	// Batches and SendNS total the Send+Flush calls of a live pass.
	Batches int64 `json:"batches"`
	SendNS  int64 `json:"send_ns"`
	// LateNS holds each live batch's send time minus its due time.
	LateNS []int64 `json:"late_ns,omitempty"`
}

// batches splits a recording into one batch per frame window, the unit
// the generator sends.
func batches(evs []events.Event) [][]events.Event {
	var out [][]events.Event
	for i := 0; i < len(evs); {
		frame := evs[i].T / frameUS
		j := i
		for j < len(evs) && evs[j].T/frameUS == frame {
			j++
		}
		for int64(len(out)) < frame {
			out = append(out, nil)
		}
		out = append(out, evs[i:j])
		i = j
	}
	return out
}

func generatorMain() error {
	res, evs, err := decode(os.Getenv(inputEnv))
	if err != nil {
		return err
	}
	bs := batches(evs)
	in := bufio.NewScanner(os.Stdin)
	enc := json.NewEncoder(os.Stdout)
	for in.Scan() {
		var cmd genCommand
		if err := json.Unmarshal(in.Bytes(), &cmd); err != nil {
			return err
		}
		if err := enc.Encode(generate(cmd, res, bs)); err != nil {
			return err
		}
	}
	return in.Err()
}

func generate(cmd genCommand, res events.Resolution, bs [][]events.Event) genReport {
	reps := make([]genReport, len(cmd.IDs))
	var wg sync.WaitGroup
	for i, id := range cmd.IDs {
		wg.Add(1)
		go func(rep *genReport, id string, t0 int64) {
			defer wg.Done()
			if err := stream(cmd.Addr, id, t0, cmd.Speed, res, bs, rep); err != nil {
				rep.Err = fmt.Sprintf("%s: %v", id, err)
			}
		}(&reps[i], id, cmd.T0+streamOffset(i, cmd.Speed))
	}
	wg.Wait()
	var out genReport
	for _, r := range reps {
		if out.Err == "" {
			out.Err = r.Err
		}
		out.Batches += r.Batches
		out.SendNS += r.SendNS
		out.LateNS = append(out.LateNS, r.LateNS...)
	}
	return out
}

// streamOffset is how far stream i's schedule trails T0, in ns.
func streamOffset(i int, speed float64) int64 {
	if speed <= 0 {
		return 0
	}
	return int64(float64(i*frameUS*1000) / (2 * speed))
}

func stream(addr, id string, t0 int64, speed float64, res events.Resolution, bs [][]events.Event, rep *genReport) error {
	d, err := ingest.Dial(addr, ingest.DialConfig{StreamID: id, Res: res})
	if err != nil {
		return err
	}
	defer d.Abort()
	live := speed > 0
	if live {
		rep.LateNS = make([]int64, 0, len(bs))
	}
	for k, b := range bs {
		if live {
			due := t0 + int64(float64(int64(k+1)*frameUS*1000)/speed)
			if w := due - nowNS(); w > 0 {
				time.Sleep(time.Duration(w))
			}
			sent := nowNS()
			rep.LateNS = append(rep.LateNS, sent-due)
			if err := d.Send(b); err != nil {
				return err
			}
			if err := d.Flush(); err != nil {
				return err
			}
			rep.Batches++
			rep.SendNS += nowNS() - sent
			continue
		}
		if err := d.Send(b); err != nil {
			return err
		}
	}
	return d.Close()
}

// generator is the parent's handle on the generator process.
type generator struct {
	cmd *exec.Cmd
	in  io.WriteCloser
	out *bufio.Scanner
}

func startGenerator(path string) (*generator, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(), roleEnv+"=generator", inputEnv+"="+path)
	cmd.Stderr = os.Stderr
	in, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	sc := bufio.NewScanner(out)
	sc.Buffer(make([]byte, 64<<10), 64<<20)
	return &generator{cmd: cmd, in: in, out: sc}, nil
}

func (g *generator) send(c genCommand) error {
	b, err := json.Marshal(c)
	if err != nil {
		return err
	}
	_, err = g.in.Write(append(b, '\n'))
	return err
}

func (g *generator) report() (genReport, error) {
	var r genReport
	if !g.out.Scan() {
		if err := g.out.Err(); err != nil {
			return r, err
		}
		return r, io.ErrUnexpectedEOF
	}
	if err := json.Unmarshal(g.out.Bytes(), &r); err != nil {
		return r, err
	}
	if r.Err != "" {
		return r, fmt.Errorf("generator: %s", r.Err)
	}
	return r, nil
}

// stop ends the generator by closing its stdin and waits for it.
func (g *generator) stop() error {
	g.in.Close()
	return g.cmd.Wait()
}
