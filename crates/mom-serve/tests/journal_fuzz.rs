//! The journal decoder contract: a journal cut at any byte, or with any
//! byte changed, replays without panicking to a prefix of the records
//! appended to it — exactly the records whose frames lie wholly before
//! the damage, so a torn or corrupt tail never costs an intact record and
//! never invents one.

use mom_serve::journal::{replay, Journal, Record};
use mom_store::Key;
use proptest::prelude::*;

/// Mixed-width UTF-8 text shorter than `max` characters.
fn text(max: usize) -> impl Strategy<Value = String> {
    let chars = vec!['{', '"', 'k', ':', ' ', '7', 'é', '\n', '✓'];
    prop::collection::vec(prop::sample::select(chars), 0..max)
        .prop_map(|chars| chars.into_iter().collect())
}

fn record() -> impl Strategy<Value = Record> {
    prop_oneof![
        (any::<u64>(), text(200)).prop_map(|(job, body)| Record::Submit { job, body }),
        (any::<u64>(), any::<u64>()).prop_map(|(high, low)| Record::UnitDone {
            key: Key(u128::from(high) << 64 | u128::from(low)),
        }),
        (any::<u64>(), text(12)).prop_map(|(job, state)| Record::JobEnd { job, state }),
    ]
}

proptest! {
    #[test]
    fn damaged_journals_replay_the_records_before_the_damage(
        records in prop::collection::vec(record(), 1..9),
        cut in any::<usize>(),
        at in any::<usize>(),
        delta in 1u8..=255,
    ) {
        // Append through the real journal, noting where each frame ends.
        let path = std::env::temp_dir()
            .join(format!("mom-journal-fuzz-{}.wal", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let (journal, _) = Journal::open(&path).expect("open a fresh journal");
        let ends: Vec<usize> = records
            .iter()
            .map(|record| {
                journal.append(record);
                std::fs::metadata(&path).expect("journal file").len() as usize
            })
            .collect();
        drop(journal);
        let bytes = std::fs::read(&path).expect("read the journal back");
        let _ = std::fs::remove_file(&path);
        prop_assert_eq!(&replay(&bytes), &records);
        // The records whose frames end at or before `offset`.
        let intact = |offset: usize| ends.iter().take_while(|&&end| end <= offset).count();

        let cut = cut % (bytes.len() + 1);
        prop_assert_eq!(&replay(&bytes[..cut])[..], &records[..intact(cut)], "cut at {}", cut);

        // A flip inside frame k leaves frames 0..k, and nothing after.
        let at = at % bytes.len();
        let mut flipped = bytes;
        flipped[at] = flipped[at].wrapping_add(delta);
        prop_assert_eq!(&replay(&flipped)[..], &records[..intact(at)], "flip at {}", at);
    }
}
