//! An index-based doubly-linked list over frame ids.
//!
//! The paper's base cache "implements LRU lists to maintain all dirty and
//! non-dirty blocks"; this is the O(1) list those are built from. Nodes
//! are preallocated per frame id, so membership moves cost no allocation.

const NONE: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
struct Node {
    prev: u32,
    next: u32,
    linked: bool,
}

/// An intrusive-style doubly-linked list keyed by frame id.
#[derive(Debug, Clone)]
pub struct FrameList {
    head: u32,
    tail: u32,
    nodes: Vec<Node>,
    len: usize,
}

impl FrameList {
    /// Creates a list able to hold frames `0..capacity`.
    pub fn new(capacity: usize) -> Self {
        FrameList {
            head: NONE,
            tail: NONE,
            nodes: vec![Node { prev: NONE, next: NONE, linked: false }; capacity],
            len: 0,
        }
    }

    /// Number of linked frames.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no frames are linked.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// True if `frame` is currently linked.
    pub fn contains(&self, frame: u32) -> bool {
        self.nodes[frame as usize].linked
    }

    /// Front (least-recently pushed-back) frame.
    pub fn front(&self) -> Option<u32> {
        (self.head != NONE).then_some(self.head)
    }

    /// Appends `frame` at the back.
    ///
    /// # Panics
    ///
    /// Panics if the frame is already linked.
    pub fn push_back(&mut self, frame: u32) {
        let i = frame as usize;
        assert!(!self.nodes[i].linked, "frame {frame} already linked");
        self.nodes[i] = Node { prev: self.tail, next: NONE, linked: true };
        if self.tail != NONE {
            self.nodes[self.tail as usize].next = frame;
        } else {
            self.head = frame;
        }
        self.tail = frame;
        self.len += 1;
    }

    /// Unlinks `frame`; returns false if it was not linked.
    pub fn remove(&mut self, frame: u32) -> bool {
        let i = frame as usize;
        if !self.nodes[i].linked {
            return false;
        }
        let Node { prev, next, .. } = self.nodes[i];
        if prev != NONE {
            self.nodes[prev as usize].next = next;
        } else {
            self.head = next;
        }
        if next != NONE {
            self.nodes[next as usize].prev = prev;
        } else {
            self.tail = prev;
        }
        self.nodes[i] = Node { prev: NONE, next: NONE, linked: false };
        self.len -= 1;
        true
    }

    /// Removes and returns the front frame.
    pub fn pop_front(&mut self) -> Option<u32> {
        let f = self.front()?;
        self.remove(f);
        Some(f)
    }

    /// Moves `frame` to the back (most-recent position).
    pub fn move_to_back(&mut self, frame: u32) {
        if self.remove(frame) {
            self.push_back(frame);
        }
    }

    /// Iterates front → back.
    pub fn iter(&self) -> FrameListIter<'_> {
        FrameListIter { list: self, cur: self.head }
    }
}

/// Iterator over a [`FrameList`].
pub struct FrameListIter<'a> {
    list: &'a FrameList,
    cur: u32,
}

impl Iterator for FrameListIter<'_> {
    type Item = u32;

    fn next(&mut self) -> Option<u32> {
        if self.cur == NONE {
            return None;
        }
        let out = self.cur;
        self.cur = self.list.nodes[self.cur as usize].next;
        Some(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_pop_order() {
        let mut l = FrameList::new(8);
        l.push_back(1);
        l.push_back(3);
        l.push_back(5);
        assert_eq!(l.iter().collect::<Vec<_>>(), vec![1, 3, 5]);
        assert_eq!(l.pop_front(), Some(1));
        assert_eq!(l.pop_front(), Some(3));
        assert_eq!(l.pop_front(), Some(5));
        assert_eq!(l.pop_front(), None);
        assert!(l.is_empty());
    }

    #[test]
    fn remove_middle_and_ends() {
        let mut l = FrameList::new(8);
        for f in [0, 1, 2, 3, 4] {
            l.push_back(f);
        }
        assert!(l.remove(2));
        assert!(l.remove(0));
        assert!(l.remove(4));
        assert!(!l.remove(2), "double remove must be a no-op");
        assert_eq!(l.iter().collect::<Vec<_>>(), vec![1, 3]);
        assert_eq!(l.len(), 2);
    }

    #[test]
    fn move_to_back_reorders() {
        let mut l = FrameList::new(4);
        l.push_back(0);
        l.push_back(1);
        l.push_back(2);
        l.move_to_back(0);
        assert_eq!(l.iter().collect::<Vec<_>>(), vec![1, 2, 0]);
        // Moving a non-member is a no-op.
        l.move_to_back(3);
        assert_eq!(l.len(), 3);
    }

    #[test]
    #[should_panic(expected = "already linked")]
    fn double_push_panics() {
        let mut l = FrameList::new(2);
        l.push_back(0);
        l.push_back(0);
    }

    #[test]
    fn contains_tracks_membership() {
        let mut l = FrameList::new(4);
        assert!(!l.contains(1));
        l.push_back(1);
        assert!(l.contains(1));
        l.remove(1);
        assert!(!l.contains(1));
    }
}
