//! Randomized differential tests: the file pager must behave exactly like
//! the in-memory pager under arbitrary allocate/reset/write/read sequences,
//! and survive reopen at any flush point.
//!
//! Uses a seeded splitmix64 generator so every run explores the same op
//! sequences (failures are reproducible from the printed seed).

use vist_storage::{FilePager, MemPager, Pager, PAGE_TRAILER};

struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

#[derive(Debug, Clone)]
enum Op {
    Allocate,
    /// Forget every page.
    Reset,
    /// Write a byte pattern to the i-th live page.
    Write(usize, u8),
    /// Read and compare the i-th live page.
    Read(usize),
}

fn random_ops(rng: &mut Rng, n: usize) -> Vec<Op> {
    (0..n)
        .map(|_| match rng.below(9) {
            0..=2 => Op::Allocate,
            3 => Op::Reset,
            4..=6 => Op::Write(rng.below(1 << 16), rng.next() as u8),
            _ => Op::Read(rng.below(1 << 16)),
        })
        .collect()
}

fn run_ops(file: &mut FilePager, mem: &mut MemPager, ops: &[Op]) {
    const PS: usize = 256;
    // Live pages as (file_pid, mem_pid) pairs.
    let mut live: Vec<(u32, u32)> = Vec::new();
    for (i, op) in ops.iter().enumerate() {
        match op {
            Op::Allocate => {
                let f = file.allocate().unwrap();
                let m = mem.allocate().unwrap();
                live.push((f, m));
            }
            Op::Reset => {
                live.clear();
                file.reset().unwrap();
                mem.reset().unwrap();
            }
            Op::Write(ix, byte) => {
                if live.is_empty() {
                    continue;
                }
                let (f, m) = live[ix % live.len()];
                let buf = vec![*byte; PS];
                file.write(f, &buf).unwrap();
                mem.write(m, &buf).unwrap();
            }
            Op::Read(ix) => {
                if live.is_empty() {
                    continue;
                }
                let (f, m) = live[ix % live.len()];
                let mut bf = vec![0u8; PS];
                let mut bm = vec![1u8; PS];
                file.read(f, &mut bf).unwrap();
                mem.read(m, &mut bm).unwrap();
                assert_eq!(bf, bm, "op {i}: page contents diverge");
            }
        }
        // The same pages allocated; the file store adds a header frame.
        let file_pages = file.store_bytes() / (PS + PAGE_TRAILER) as u64 - 1;
        assert_eq!(file_pages, mem.store_bytes() / PS as u64, "op {i}");
    }
    // Final sweep: every live page identical.
    for (f, m) in &live {
        let mut bf = vec![0u8; PS];
        let mut bm = vec![1u8; PS];
        file.read(*f, &mut bf).unwrap();
        mem.read(*m, &mut bm).unwrap();
        assert_eq!(bf, bm);
    }
}

#[test]
fn file_pager_matches_mem_pager() {
    for case in 0..32u64 {
        let mut rng = Rng(0xD1FF ^ case);
        let len = 1 + rng.below(199);
        let ops = random_ops(&mut rng, len);
        let path =
            std::env::temp_dir().join(format!("vist-pager-prop-{}-{case}", std::process::id()));
        {
            let mut file = FilePager::create(&path, 256).unwrap();
            let mut mem = MemPager::new(256);
            run_ops(&mut file, &mut mem, &ops);
        }
        let _ = std::fs::remove_file(&path);
    }
}

#[test]
fn reopen_preserves_pages() {
    for case in 0..16u64 {
        let mut rng = Rng(0xBEEF ^ case);
        let writes: Vec<u8> = (0..1 + rng.below(39)).map(|_| rng.next() as u8).collect();
        let path =
            std::env::temp_dir().join(format!("vist-pager-reopen-{}-{case}", std::process::id()));
        let mut pids = Vec::new();
        {
            let mut p = FilePager::create(&path, 256).unwrap();
            for b in &writes {
                let pid = p.allocate().unwrap();
                p.write(pid, &vec![*b; 256]).unwrap();
                pids.push((pid, *b));
            }
            p.sync().unwrap();
        }
        {
            let mut p = FilePager::open(&path).unwrap();
            let frame = (256 + PAGE_TRAILER) as u64;
            assert_eq!(p.store_bytes(), (writes.len() as u64 + 1) * frame);
            for (pid, b) in &pids {
                let mut buf = vec![0u8; 256];
                p.read(*pid, &mut buf).unwrap();
                assert!(buf.iter().all(|x| x == b));
            }
        }
        let _ = std::fs::remove_file(&path);
    }
}
