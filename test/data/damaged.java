/* A realistic MiniJava program: the same list, object style. */

class Node {
    int value;
    Node next;

    int size() {
        Node cur = this;
        int n = 0
        while (cur != null) { n = n + 1; cur = cur.next; }
        return n;
    }
}

class SortedList extends Node {
    static int allocs = 0;
    Node head;

    Node cons(int v, Node tail) {
        Node cell = new Node();
        allocs++;
        cell.value = v;
        cell.next = tail;
        return cell;
    }

    Node insert(Node xs, int v) {
        if (xs == null || v <= xs.value) return cons(v, xs);
        xs.next = insert(xs.next, v);
        return xs;
    }

    void addAll(int[] values, int n) {
        for (int i = 0; i < n; i++)
            this.head = insert(this.head, values[i]);
    }

    boolean check() {
        Node cur = this.head;
        while (cur != null && cur.next != null) {
            if (cur.value > cur.next.value) return false;
            cur = cur.next;
        }
        return true;
    }
}
