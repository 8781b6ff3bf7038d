//! Property-based tests for the storage substrate.

use proptest::collection::vec;
use proptest::prelude::*;
use segidx_storage::{ByteReader, ByteWriter, DiskManager, Page, PageId, SizeClass};
use std::path::PathBuf;

fn temp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "segidx-storage-props-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

proptest! {
    #[test]
    fn page_roundtrips_any_payload(
        class in 0u8..=4,
        payload in vec(any::<u8>(), 0..1000),
    ) {
        let class = SizeClass::new(class);
        prop_assume!(payload.len() <= class.payload_capacity());
        let mut page = Page::new(PageId(1), class);
        page.set_payload(&payload).unwrap();
        let bytes = page.to_disk_bytes();
        prop_assert_eq!(bytes.len(), class.page_size());
        let back = Page::from_disk_bytes(PageId(1), class, &bytes).unwrap();
        prop_assert_eq!(back.payload(), payload.as_slice());
    }

    #[test]
    fn single_bitflip_detected(
        payload in vec(any::<u8>(), 1..500),
        flip_bit in 0usize..8,
        seed in any::<u64>(),
    ) {
        let class = SizeClass::new(0);
        let mut page = Page::new(PageId(3), class);
        page.set_payload(&payload).unwrap();
        let mut bytes = page.to_disk_bytes();
        // Flip one bit somewhere in header-or-payload region.
        let idx = (seed as usize) % (20 + payload.len());
        bytes[idx] ^= 1 << flip_bit;
        // The checksum chains over the header prefix and the payload, so a
        // flip of *any* bit in the header or stored payload is detected.
        prop_assert!(Page::from_disk_bytes(PageId(3), class, &bytes).is_err());
    }

    #[test]
    fn on_disk_byte_corruption_is_typed_never_a_wrong_read(
        payload in vec(any::<u8>(), 1..900),
        corrupt_at in any::<u64>(),
        xor in 1u8..=255,
        case in any::<u64>(),
    ) {
        use std::io::{Read, Seek, SeekFrom, Write};
        let path = temp(&format!("rot-{case:016x}.db"));
        let id;
        {
            let dm = DiskManager::create(&path).unwrap();
            id = dm.allocate(SizeClass::new(0)).unwrap();
            let mut page = Page::new(id, SizeClass::new(0));
            page.set_payload(&payload).unwrap();
            dm.write_page(&page).unwrap();
            dm.sync().unwrap();
        }
        // Corrupt one byte of the page's integrity-covered region (header
        // plus stored payload; the zero tail of the extent is dead space).
        let covered = 20 + payload.len() as u64;
        let offset = corrupt_at % covered;
        {
            let mut f = std::fs::OpenOptions::new()
                .read(true)
                .write(true)
                .open(&path)
                .unwrap();
            f.seek(SeekFrom::Start(offset)).unwrap();
            let mut b = [0u8];
            f.read_exact(&mut b).unwrap();
            f.seek(SeekFrom::Start(offset)).unwrap();
            f.write_all(&[b[0] ^ xor]).unwrap();
        }
        let dm = DiskManager::open(&path).unwrap();
        match dm.read_page(id) {
            Err(e) => prop_assert!(e.is_corruption(), "untyped error: {e}"),
            Ok(_) => prop_assert!(false, "corrupted page read back successfully"),
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn meta_epoch_is_monotonic_across_commits_and_reopens(
        // Each step: 0 = allocate+write+sync, 1 = sync with nothing dirty,
        // 2 = reopen.
        steps in vec(0u8..3, 1..12),
        case in any::<u64>(),
    ) {
        let path = temp(&format!("epoch-{case:016x}.db"));
        let mut dm = DiskManager::create(&path).unwrap();
        let mut last_epoch = dm.epoch();
        let mut payload_no = 0u64;
        for step in steps {
            match step {
                0 => {
                    let id = dm.allocate(SizeClass::new(0)).unwrap();
                    let mut page = Page::new(id, SizeClass::new(0));
                    page.set_payload(&payload_no.to_le_bytes()).unwrap();
                    payload_no += 1;
                    dm.write_page(&page).unwrap();
                    dm.sync().unwrap();
                    prop_assert_eq!(dm.epoch(), last_epoch + 1, "dirty sync bumps the epoch");
                }
                1 => {
                    dm.sync().unwrap();
                    prop_assert_eq!(dm.epoch(), last_epoch, "clean sync is a no-op");
                }
                _ => {
                    drop(dm);
                    dm = DiskManager::open(&path).unwrap();
                    prop_assert_eq!(dm.epoch(), last_epoch, "reopen preserves the epoch");
                }
            }
            prop_assert!(dm.epoch() >= last_epoch, "epoch never moves backwards");
            last_epoch = dm.epoch();
        }
        drop(dm);
        let _ = std::fs::remove_file(&path);
        let mut meta = temp(&format!("epoch-{case:016x}.db")).into_os_string();
        meta.push(".meta");
        let _ = std::fs::remove_file(PathBuf::from(meta));
    }

    #[test]
    fn writer_reader_mixed_sequence(ops in vec((0u8..4, any::<u64>()), 0..50)) {
        let mut w = ByteWriter::new();
        for (kind, v) in &ops {
            match kind {
                0 => w.put_u8(*v as u8),
                1 => w.put_u32(*v as u32),
                2 => w.put_u64(*v),
                _ => w.put_f64(f64::from_bits(*v)),
            }
        }
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        for (kind, v) in &ops {
            match kind {
                0 => prop_assert_eq!(r.get_u8().unwrap(), *v as u8),
                1 => prop_assert_eq!(r.get_u32().unwrap(), *v as u32),
                2 => prop_assert_eq!(r.get_u64().unwrap(), *v),
                _ => prop_assert_eq!(r.get_f64().unwrap().to_bits(), *v),
            }
        }
        prop_assert!(r.is_exhausted());
    }
}
