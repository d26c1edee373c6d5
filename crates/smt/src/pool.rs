//! One node pool for many intrusive singly-linked chains.
//!
//! The wakeup waiters of each physical register and the completion
//! events of each wheel bucket are short chains that fill and drain
//! over and over. Linking them through one shared `Vec` of nodes with a
//! freelist, instead of giving every chain a `Vec` of its own, makes a
//! push and a pop pointer bumps into memory that is already hot, and
//! bounds the pool by the peak number of entries live at once: a freed
//! node is the next one handed out, so the steady state allocates
//! nothing, and no chain keeps the largest capacity it ever held.

/// The null link: the end of a chain, and the head of an empty one.
pub const NIL: u32 = u32::MAX;

#[derive(Clone, Copy, Debug)]
struct Node<T> {
    value: T,
    next: u32,
}

/// The nodes of every chain over one pool. A chain is a `u32` head
/// owned by the caller ([`NIL`] when empty); it is LIFO.
#[derive(Clone, Debug)]
pub struct NodePool<T> {
    nodes: Vec<Node<T>>,
    /// Head of the freelist, linked through `next`.
    free: u32,
}

impl<T: Copy> NodePool<T> {
    pub fn new() -> Self {
        NodePool {
            nodes: Vec::new(),
            free: NIL,
        }
    }

    /// Prepends `value` to the chain at `head`, reusing a freed node if
    /// there is one.
    #[inline]
    pub fn push(&mut self, head: &mut u32, value: T) {
        let node = Node { value, next: *head };
        *head = if self.free == NIL {
            let idx = u32::try_from(self.nodes.len()).expect("pool index fits u32");
            self.nodes.push(node);
            idx
        } else {
            let idx = self.free;
            self.free = std::mem::replace(&mut self.nodes[idx as usize], node).next;
            idx
        };
    }

    /// Unlinks the first node of the chain at `head` onto the freelist
    /// and returns its value, or `None` if the chain is empty.
    #[inline]
    pub fn pop(&mut self, head: &mut u32) -> Option<T> {
        if *head == NIL {
            return None;
        }
        let idx = *head;
        let node = &mut self.nodes[idx as usize];
        *head = std::mem::replace(&mut node.next, self.free);
        self.free = idx;
        Some(node.value)
    }

    /// Nodes the pool holds, live or free: the peak number of entries
    /// that were ever live at once.
    #[cfg(test)]
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chains_are_lifo_and_disjoint() {
        let mut pool = NodePool::new();
        let (mut a, mut b) = (NIL, NIL);
        pool.push(&mut a, 1);
        pool.push(&mut b, 10);
        pool.push(&mut a, 2);
        assert_eq!(pool.pop(&mut a), Some(2));
        assert_eq!(pool.pop(&mut b), Some(10));
        assert_eq!(pool.pop(&mut b), None);
        assert_eq!(pool.pop(&mut a), Some(1));
        assert_eq!((a, b), (NIL, NIL));
    }
}
