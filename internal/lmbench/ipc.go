// ipc.go measures the mediated IPC rendezvous and data plane across the
// three socket namespaces. Each goroutine drives its own daemon/client
// process pair through a full round trip — connect, accept, request,
// reply, close — so every iteration crosses the firewall at the connect,
// accept, send and recv hooks while the namespace registries (atomic COW
// maps, like the dcache) are hit concurrently from every goroutine.
package lmbench

import (
	"fmt"

	"pfirewall/internal/kernel"
	"pfirewall/internal/programs"
)

// ipcNamespaces are the three rendezvous spaces: filesystem sockets walk
// the vfs on every connect, the abstract and port namespaces only touch
// the IPC registry.
var ipcNamespaces = []string{"fs", "abstract", "port"}

// ipcPair is one daemon/client pairing with its private listener.
type ipcPair struct {
	daemon  *kernel.Proc
	client  *kernel.Proc
	sfd     int
	connect func() (int, error)
}

var ipcRequest = []byte("GET job\n")
var ipcReply = []byte("OK job\n")

// newIPCPair binds a listener in the given namespace under a key unique to
// this pair index and returns the ready-to-run pairing.
func newIPCPair(w *programs.World, ns string, i int) ipcPair {
	daemon := w.NewProc(kernel.ProcSpec{UID: 0, GID: 0, Label: "dbusd_t", Exec: programs.BinDbusD})
	client := benchProc(w)
	var sfd int
	var err error
	var connect func() (int, error)
	switch ns {
	case "fs":
		path := fmt.Sprintf("/tmp/ipcbench-%d", i)
		if sfd, err = daemon.Bind(path, 0o666); err != nil {
			panic(err)
		}
		connect = func() (int, error) { return client.Connect(path) }
	case "abstract":
		name := fmt.Sprintf("ipcbench-%d", i)
		if sfd, err = daemon.BindAbstract(name); err != nil {
			panic(err)
		}
		connect = func() (int, error) { return client.ConnectAbstract(name) }
	case "port":
		port := uint16(9000 + i)
		if sfd, err = daemon.BindPort(port); err != nil {
			panic(err)
		}
		connect = func() (int, error) { return client.ConnectPort(port) }
	default:
		panic("unknown namespace " + ns)
	}
	if err := daemon.Listen(sfd, 16); err != nil {
		panic(err)
	}
	return ipcPair{daemon: daemon, client: client, sfd: sfd, connect: connect}
}

// roundTrip is the measured body: a complete client/daemon exchange.
// Connect enqueues the pending pair synchronously, so Accept never spins.
func (pr ipcPair) roundTrip() {
	cfd, err := pr.connect()
	if err != nil {
		panic(err)
	}
	afd, err := pr.daemon.Accept(pr.sfd)
	if err != nil {
		panic(err)
	}
	if _, err := pr.client.Send(cfd, ipcRequest); err != nil {
		panic(err)
	}
	if _, err := pr.daemon.Recv(afd, 0); err != nil {
		panic(err)
	}
	if _, err := pr.daemon.Send(afd, ipcReply); err != nil {
		panic(err)
	}
	if _, err := pr.client.Recv(cfd, 0); err != nil {
		panic(err)
	}
	pr.client.Close(cfd)
	pr.daemon.Close(afd)
}

// ipcCells measures each namespace at each fan-out on a fully armed world
// (EPTSPC configuration with the deployment-scale rule base); one op is
// one complete round trip.
func ipcCells(fanout []int) []Cell {
	var out []Cell
	for _, ns := range ipcNamespaces {
		for _, g := range fanout {
			out = append(out, Cell{Name: fmt.Sprintf("ipc/%s/g=%d", ns, g), B: Side{
				Name: "armed",
				Setup: func() Instance {
					return Instance{Bodies: ipcBodies(armedWorld(), ns, g)}
				},
			}})
		}
	}
	return out
}

// ipcBodies binds g private listeners in ns and returns one warmed round
// trip body per daemon/client pair.
func ipcBodies(w *programs.World, ns string, g int) []func() {
	bodies := make([]func(), g)
	for i := range bodies {
		pr := newIPCPair(w, ns, i)
		pr.roundTrip()
		bodies[i] = pr.roundTrip
	}
	return bodies
}
