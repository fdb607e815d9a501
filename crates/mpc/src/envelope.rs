//! Message envelopes and matching selectors.

use bytes::Bytes;

/// A message tag. User tags are non-negative; negative tags are reserved
/// for the runtime's internal collective traffic.
pub type Tag = i32;

/// Source selector for a receive — `MPI_ANY_SOURCE` analog.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Source {
    /// Match only messages from this group rank.
    Rank(usize),
    /// Match a message from any rank.
    Any,
}

impl Source {
    pub(crate) fn matches(&self, src: usize) -> bool {
        match self {
            Source::Rank(r) => *r == src,
            Source::Any => true,
        }
    }
}

impl From<usize> for Source {
    fn from(r: usize) -> Self {
        Source::Rank(r)
    }
}

/// Tag selector for a receive — `MPI_ANY_TAG` analog.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TagSel {
    /// Match only this tag.
    Tag(Tag),
    /// Match any user tag (`tag >= 0`). Like `MPI_ANY_TAG`, it never
    /// matches the runtime's collective traffic, so a wildcard receive
    /// cannot take a peer's barrier or broadcast message.
    Any,
}

impl TagSel {
    pub(crate) fn matches(&self, tag: Tag) -> bool {
        match self {
            TagSel::Tag(t) => *t == tag,
            TagSel::Any => tag >= 0,
        }
    }
}

impl From<Tag> for TagSel {
    fn from(t: Tag) -> Self {
        TagSel::Tag(t)
    }
}

/// One in-flight message.
#[derive(Debug, Clone)]
pub(crate) struct Envelope {
    /// Which communicator the message belongs to.
    pub comm_id: u64,
    /// Sender's rank *within that communicator's group*.
    pub src: usize,
    /// Message tag.
    pub tag: Tag,
    /// Serialized payload.
    pub payload: Bytes,
    /// For synchronous sends: a completion latch the receiver must open.
    pub sync_ack: Option<std::sync::Arc<crate::mailbox::Latch>>,
}

impl Envelope {
    pub(crate) fn matches(&self, comm_id: u64, src: &Source, tag: &TagSel) -> bool {
        self.comm_id == comm_id && src.matches(self.src) && tag.matches(self.tag)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn source_selector_matching() {
        assert!(Source::Any.matches(7));
        assert!(Source::Rank(3).matches(3));
        assert!(!Source::Rank(3).matches(4));
        assert_eq!(Source::from(5), Source::Rank(5));
    }

    #[test]
    fn tag_selector_matching() {
        assert!(TagSel::Any.matches(0));
        assert!(
            !TagSel::Any.matches(-1),
            "collective traffic is not a user tag"
        );
        assert!(TagSel::Tag(-1).matches(-1));
        assert!(TagSel::Tag(9).matches(9));
        assert!(!TagSel::Tag(9).matches(8));
        assert_eq!(TagSel::from(2), TagSel::Tag(2));
    }

    #[test]
    fn envelope_matching_requires_all_three() {
        let env = Envelope {
            comm_id: 1,
            src: 2,
            tag: 3,
            payload: Bytes::new(),
            sync_ack: None,
        };
        assert!(env.matches(1, &Source::Rank(2), &TagSel::Tag(3)));
        assert!(env.matches(1, &Source::Any, &TagSel::Any));
        assert!(!env.matches(2, &Source::Any, &TagSel::Any), "wrong comm");
        assert!(!env.matches(1, &Source::Rank(0), &TagSel::Any), "wrong src");
        assert!(!env.matches(1, &Source::Any, &TagSel::Tag(4)), "wrong tag");
    }
}
