// Audit: the operator's side of the Process Firewall (Section 6.1.2).
// The firewall silently defeats an attack while the program keeps working;
// later, the denial log reveals what happened — this is how the paper's
// authors discovered the previously unknown GNU Icecat vulnerability (E8).
//
// Run with: go run ./examples/audit
package main

import (
	"fmt"

	"pfirewall"
	"pfirewall/internal/audit"
	"pfirewall/internal/obs"
	"pfirewall/internal/programs"
)

func main() {
	sys := pfirewall.NewSystem(pfirewall.Options{Firewall: true})
	sys.MustInstallRules(pfirewall.StandardRules())

	// Attach the denial log.
	denials := obs.NewSpanLog("DROP")
	sys.Firewall().Log = denials
	sys.Firewall().LogDenials = true

	// The adversary plants a Trojan libssl.so in the user's home; the
	// Icecat launcher bug makes ld.so search the working directory first.
	adversary := sys.NewAdversary()
	fd, err := adversary.Open("/home/user/libssl.so", pfirewall.O_CREAT|pfirewall.O_RDWR, 0o755)
	if err != nil {
		panic(err)
	}
	adversary.Close(fd)

	// The user launches the browser. Nothing visibly goes wrong: rule R1
	// rejects the Trojan candidate, ld.so falls through to /lib, and the
	// browser starts normally.
	icecat := programs.NewIcecat(sys.World())
	p := icecat.Spawn("/home/user")
	loaded, _, err := icecat.Start(p)
	fmt.Printf("icecat started: loaded %v (err=%v)\n", loaded, err)

	// Days later, the operator reviews the denial log.
	groups := audit.Denials(denials.Snapshot())
	fmt.Println("\ndenial log:")
	fmt.Print(audit.Report(groups))

	suspicious := audit.Suspicious(groups, 1)
	fmt.Printf("\n%d suspicious denial pattern(s) — adversary-writable resources repeatedly blocked.\n", len(suspicious))
	for _, g := range suspicious {
		fmt.Printf("-> report a vulnerability in %s (entrypoint 0x%x): it tried to load %v\n",
			g.Key.Program, g.Key.Entrypoint, g.Paths)
	}
}
