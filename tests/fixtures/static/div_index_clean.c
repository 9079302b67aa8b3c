/* Integer division truncates toward zero: a / 2 and a >> 1 are 3 for
 * a = 7, so both stores land in int arr[4].  Without truncation the
 * index would be 3.5, past the last element. */
#include <stdio.h>

int main() {
    int arr[4];
    int a = 7;
    arr[a / 2] = 1;
    arr[a >> 1] = 2;
    printf("%d\n", arr[3]);
    return 0;
}
