// Command s4nfsd is the S4-enhanced NFS server of OSDI '00 Fig. 1b: an
// S4 drive and the NFS-to-S4 translator fused into one process, serving
// NFSv2 over UDP. Normal file traffic flows through NFS; recovery and
// administration go through the S4 protocol (run s4d alongside, or use
// the drive image with s4ctl after stopping the daemon), because NFS
// has no notion of time-based access (§4.1.2).
//
//	s4nfsd -image /var/s4/drive.img -size 2048 -nfs 127.0.0.1:12049 \
//	       -export /s4 -window 168h
package main

import (
	"flag"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"s4/internal/core"
	"s4/internal/disk"
	"s4/internal/nfsv2"
	"s4/internal/s4fs"
	"s4/internal/seglog"
	"s4/internal/types"
)

func main() {
	image := flag.String("image", "s4drive.img", "backing image file")
	sizeMB := flag.Int64("size", 1024, "image size in MB (new images)")
	nfsAddr := flag.String("nfs", "127.0.0.1:12049", "NFSv2/UDP listen address")
	export := flag.String("export", "/s4", "export path served to MOUNT")
	window := flag.Duration("window", 7*24*time.Hour, "detection window")
	partition := flag.String("partition", "root", "drive partition name for the file system root")
	cleanEvery := flag.Duration("clean", 30*time.Second, "cleaner interval (0 disables)")
	flag.Parse()

	dev, err := disk.OpenFile(*image, *sizeMB<<20)
	if err != nil {
		log.Fatalf("s4nfsd: open image: %v", err)
	}
	opts := core.Options{Window: *window}
	// A read error is not a blank image: formatting would wipe every
	// version the image holds.
	blank, err := seglog.Blank(dev)
	if err != nil {
		log.Fatalf("s4nfsd: attach drive: %v", err)
	}
	var drv *core.Drive
	if blank {
		drv, err = core.Format(dev, opts)
	} else {
		drv, err = core.Open(dev, opts)
	}
	if err != nil {
		log.Fatalf("s4nfsd: attach drive: %v", err)
	}
	fsOpts := s4fs.Options{
		Cred:       types.Cred{User: 0, Client: 1},
		Partition:  *partition,
		SyncEachOp: true, // NFSv2 semantics (§4.1.2)
	}
	fs, err := s4fs.Mount(drv, fsOpts)
	if err != nil {
		fs, err = s4fs.Mkfs(drv, fsOpts)
	}
	if err != nil {
		log.Fatalf("s4nfsd: file system: %v", err)
	}

	srv := nfsv2.NewServer(fs, *export)
	stopClean := make(chan struct{})
	if *cleanEvery > 0 {
		go func() {
			t := time.NewTicker(*cleanEvery)
			defer t.Stop()
			for {
				select {
				case <-stopClean:
					return
				case <-t.C:
					_, _ = drv.CleanOnce()
				}
			}
		}()
	}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-sig
		log.Printf("s4nfsd: shutting down")
		close(stopClean)
		_ = srv.Close()
	}()
	log.Printf("s4nfsd: exporting %s on %s (window %v)", *export, *nfsAddr, *window)
	if err := srv.ListenAndServe(*nfsAddr); err != nil {
		log.Printf("s4nfsd: serve: %v", err)
	}
	if err := drv.Close(); err != nil {
		log.Fatalf("s4nfsd: checkpoint on shutdown: %v", err)
	}
	if err := dev.Close(); err != nil {
		log.Fatalf("s4nfsd: close image: %v", err)
	}
}
